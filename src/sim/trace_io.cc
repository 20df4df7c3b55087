#include "sim/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace reaper {
namespace sim {

namespace {
bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/**
 * Parse a whole token as an unsigned address, in the bases strtoull
 * picks for base 0 ("0x" hex, leading-zero octal, else decimal), but
 * with no sign, no empty digit string and nothing left over.
 */
bool
parseAddress(const std::string &token, uint64_t *out)
{
    const char *first = token.data();
    const char *last = first + token.size();
    int base = 10;
    if (token.size() > 1 && token[0] == '0') {
        base = 8;
        if (token[1] == 'x' || token[1] == 'X') {
            first += 2;
            base = 16;
        }
    }
    auto [ptr, ec] = std::from_chars(first, last, *out, base);
    return ec == std::errc() && ptr == last;
}
} // namespace

void
saveTrace(const Trace &trace, std::ostream &os)
{
    os << "# trace: " << trace.name << "\n";
    os << std::hex;
    for (const TraceEntry &e : trace.entries) {
        os << std::dec << e.bubbles << (e.isWrite ? " W " : " R ")
           << "0x" << std::hex << e.addr << "\n";
    }
    os << std::dec;
}

void
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("saveTraceFile: cannot open '%s' for writing",
              path.c_str());
    saveTrace(trace, os);
    if (!os)
        fatal("saveTraceFile: write to '%s' failed", path.c_str());
}

bool
tryLoadTrace(std::istream &is, Trace *out, std::string *error)
{
    if (!out)
        panic("tryLoadTrace: out must not be null");
    Trace trace;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // Strip comments and blank lines; the name rides on the first
        // "# trace:" comment if present.
        if (line.empty())
            continue;
        if (line[0] == '#') {
            const std::string tag = "# trace:";
            if (line.rfind(tag, 0) == 0 && trace.name.empty()) {
                size_t start =
                    line.find_first_not_of(' ', tag.size());
                if (start != std::string::npos)
                    trace.name = line.substr(start);
            }
            continue;
        }
        std::istringstream ls(line);
        TraceEntry e;
        std::string op, addr;
        uint64_t bubbles;
        if (!(ls >> bubbles >> op >> addr))
            return fail(error, "line " + std::to_string(lineno) +
                                   ": expected '<bubbles> R|W <addr>'");
        if (bubbles > 0xFFFFFFFFull)
            return fail(error, "line " + std::to_string(lineno) +
                                   ": bubble count out of range");
        e.bubbles = static_cast<uint32_t>(bubbles);
        if (op == "R" || op == "r") {
            e.isWrite = false;
        } else if (op == "W" || op == "w") {
            e.isWrite = true;
        } else {
            return fail(error, "line " + std::to_string(lineno) +
                                   ": bad op '" + op + "'");
        }
        if (!parseAddress(addr, &e.addr))
            return fail(error, "line " + std::to_string(lineno) +
                                   ": bad address '" + addr + "'");
        std::string extra;
        if (ls >> extra)
            return fail(error, "line " + std::to_string(lineno) +
                                   ": unexpected '" + extra + "'");
        trace.entries.push_back(e);
    }
    *out = std::move(trace);
    return true;
}

Trace
loadTrace(std::istream &is)
{
    Trace trace;
    std::string error;
    if (!tryLoadTrace(is, &trace, &error))
        fatal("loadTrace: %s", error.c_str());
    return trace;
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("loadTraceFile: cannot open '%s'", path.c_str());
    Trace trace;
    std::string error;
    if (!tryLoadTrace(is, &trace, &error))
        fatal("loadTraceFile: '%s': %s", path.c_str(), error.c_str());
    return trace;
}

} // namespace sim
} // namespace reaper
