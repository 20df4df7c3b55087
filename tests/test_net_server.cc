/**
 * @file
 * End-to-end tests for the REAPER-NET daemon (net/server.h) over real
 * loopback sockets: handshake and key advertisement, answer
 * correctness against in-process ground truth, the
 * every-request-gets-a-response guarantee under saturation
 * (backpressure -> Rejected, never a drop), an unreadable stored
 * profile answered Rejected rather than NotFound, protocol-error
 * teardown, graceful shutdown via the SIGTERM latch, and an N-clients
 * hammer that doubles as the TSan smoke (runs under
 * `ctest -L sanitize`).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <sys/socket.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/profile_store.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/profile_cache.h"
#include "serve/workload.h"

namespace fs = std::filesystem;

namespace reaper {
namespace net {
namespace {

constexpr uint64_t kRowBits = 512;
constexpr uint64_t kRows = 1024;

std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("reaper_" + name);
    fs::remove_all(dir);
    return dir.string();
}

profiling::RetentionProfile
randomProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({0, rng.uniformInt(kRows * kRowBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(v);
    return p;
}

std::vector<std::string>
populateStore(campaign::ProfileStore &store, size_t n,
              size_t cells = 400)
{
    std::vector<std::string> keys;
    for (size_t i = 0; i < n; ++i) {
        std::string key = campaign::ProfileStore::profileKey(
            "chip-" + std::to_string(i), {1.024, 45.0});
        store.commit(key, randomProfile(1000 + i, cells));
        keys.push_back(key);
    }
    return keys;
}

serve::CacheConfig
testCacheConfig()
{
    serve::CacheConfig cfg;
    cfg.directory.rowBits = kRowBits;
    return cfg;
}

/** Store + cache + running server, torn down in reverse order. */
struct Fixture
{
    explicit Fixture(const std::string &name, size_t profiles = 4,
                     serve::EngineConfig engineCfg = {},
                     ServerConfig serverCfg = {})
        : store(scratchDir(name))
    {
        keys = populateStore(store, profiles);
        cache = std::make_unique<serve::ProfileCache>(
            store, testCacheConfig());
        serverCfg.keys = keys;
        server = std::make_unique<Server>(*cache, engineCfg,
                                          serverCfg);
        auto started = server->start();
        EXPECT_TRUE(started.hasValue())
            << (started.hasValue() ? ""
                                   : started.error().describe());
    }

    campaign::ProfileStore store;
    std::vector<std::string> keys;
    std::unique_ptr<serve::ProfileCache> cache;
    std::unique_ptr<Server> server;
};

/** Send `reqs` pipelined and collect exactly one response each. */
std::vector<WireResponse>
queryAll(Client &client, std::vector<serve::Request> reqs)
{
    EXPECT_TRUE(
        client.sendQueries(reqs.data(), reqs.size()).hasValue());
    std::vector<WireResponse> out;
    while (out.size() < reqs.size()) {
        auto st = client.recvResponses(out);
        EXPECT_TRUE(st.hasValue())
            << (st.hasValue() ? "" : st.error().describe());
        if (!st.hasValue())
            break;
    }
    return out;
}

// ---------------- Handshake and keys ----------------

TEST(NetServer, HandshakeAdvertisesLimitsAndKeys)
{
    Fixture fx("net_handshake");
    auto client =
        Client::connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.hasValue())
        << (client.hasValue() ? "" : client.error().describe());
    EXPECT_EQ(client.value().serverLimits().maxFrameBytes,
              kDefaultMaxFrameBytes);
    auto keys = client.value().listKeys();
    ASSERT_TRUE(keys.hasValue());
    EXPECT_EQ(keys.value(), fx.keys);
}

// ---------------- Correctness over the wire ----------------

TEST(NetServer, AnswersMatchInProcessEngine)
{
    Fixture fx("net_correct");

    // Ground truth: answer the same workload with a directly-owned
    // engine over an identical cache.
    serve::WorkloadConfig wc;
    wc.keys = fx.keys;
    wc.rowsPerChip = kRows;
    wc.unknownFraction = 0.25;
    const size_t n = 500;

    serve::Workload workload(wc, 77);
    std::vector<serve::Request> reqs;
    for (size_t i = 0; i < n; ++i)
        reqs.push_back(workload.next());
    std::vector<serve::Request> reqsCopy = reqs;

    campaign::ProfileStore store2(scratchDir("net_correct_truth"));
    populateStore(store2, 4);
    serve::ProfileCache cache2(store2, testCacheConfig());
    std::vector<serve::Response> truth(n);
    {
        std::mutex mu;
        serve::EngineConfig ec;
        serve::QueryEngine engine(
            cache2, ec, nullptr, [&](const serve::Response &r) {
                std::lock_guard<std::mutex> lock(mu);
                truth[r.id] = r;
            });
        size_t offset = 0;
        while (offset < reqsCopy.size()) {
            size_t taken = engine.trySubmitBatch(reqsCopy, offset);
            offset += taken;
            if (taken == 0)
                std::this_thread::yield();
        }
        engine.drain();
    }

    auto client =
        Client::connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.hasValue());
    std::vector<WireResponse> got = queryAll(client.value(), reqs);
    ASSERT_EQ(got.size(), n);
    for (const WireResponse &resp : got) {
        ASSERT_LT(resp.id, n);
        const serve::Response &want = truth[resp.id];
        if (want.status == serve::ResponseStatus::Ok) {
            EXPECT_EQ(resp.status, WireStatus::Ok);
            EXPECT_EQ(resp.weak, want.weak);
            EXPECT_EQ(resp.bin, want.bin);
            EXPECT_EQ(resp.interval, want.interval);
        } else {
            EXPECT_EQ(resp.status, WireStatus::NotFound);
        }
    }
}

// ---------------- Saturation: no request unanswered ----------------

TEST(NetServer, SaturationRejectsButAnswersEverything)
{
    // A queue of 8 with one worker cannot hold a 64-request frame:
    // the daemon must shed the overflow as Rejected — immediately,
    // without blocking — and still answer every single request.
    serve::EngineConfig ec;
    ec.workers = 1;
    ec.queueCapacity = 8;
    Fixture fx("net_saturate", 2, ec);

    LoadgenConfig lg;
    lg.port = fx.server->port();
    lg.connections = 2;
    lg.pipeline = 8;
    lg.batch = 64;
    lg.totalRequests = 20000;
    lg.workload.keys = fx.keys;
    lg.workload.rowsPerChip = kRows;
    auto result = runLoadgen(lg);
    ASSERT_TRUE(result.hasValue())
        << (result.hasValue() ? "" : result.error().describe());
    const LoadgenResult &r = result.value();
    EXPECT_EQ(r.sent, 20000u);
    EXPECT_GT(r.rejected, 0u) << "saturation never tripped "
                                 "backpressure — not saturating";
    EXPECT_EQ(r.ok + r.notFound + r.rejected, r.sent)
        << "some requests were dropped without a response";
    EXPECT_EQ(r.unanswered, 0u);
    EXPECT_EQ(r.protocolErrors, 0u);
    EXPECT_TRUE(r.errors.empty());

    fx.server->stop();
    fx.server->join();
    ServerStats stats = fx.server->stats();
    EXPECT_EQ(stats.responsesOk + stats.responsesNotFound +
                  stats.responsesRejected,
              stats.requests);
}

// ---------------- Unreadable profiles are retryable ----------------

// A profile the store holds but cannot read is not absent: the engine
// answers RetryLater and the daemon sends it as Rejected, which a
// client may retry, never as NotFound.
TEST(NetServer, UnreadableProfileIsRejectedNotNotFound)
{
    Fixture fx("net_unreadable", 2);
    for (const campaign::StoreEntry &e : fx.store.entries()) {
        if (e.key != fx.keys[0])
            continue;
        std::ofstream os(fs::path(fx.store.dir()) / e.file,
                         std::ios::binary | std::ios::trunc);
        os << "not a profile\n";
    }
    auto client = Client::connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.hasValue());
    std::vector<serve::Request> reqs(4);
    for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = i;
        reqs[i].kind = serve::QueryKind::RefreshBin;
        reqs[i].key = fx.keys[i % 2];
        reqs[i].row = i;
    }
    std::vector<WireResponse> got = queryAll(client.value(), reqs);
    ASSERT_EQ(got.size(), reqs.size());
    for (const WireResponse &resp : got)
        EXPECT_EQ(resp.status, resp.id % 2 == 0 ? WireStatus::Rejected
                                                : WireStatus::Ok)
            << "request " << resp.id;
    ServerStats stats = fx.server->stats();
    EXPECT_EQ(stats.responsesNotFound, 0u);
    EXPECT_EQ(stats.responsesRejected, 2u);
}

// ---------------- Protocol errors tear down the conn ----------------

TEST(NetServer, GarbageFrameGetsProtocolErrorThenClose)
{
    Fixture fx("net_garbage");
    auto sock = Socket::connectTcp("127.0.0.1", fx.server->port());
    ASSERT_TRUE(sock.hasValue());

    // A frame whose CRC is wrong: header says 2-byte body, CRC 0.
    const uint8_t bad[] = {0x02, 0x00, 0x00, 0x00, 0x05, 0x01,
                           0x00, 0x00, 0x00, 0x00};
    ASSERT_TRUE(
        writeAll(sock.value().fd(), bad, sizeof(bad)).hasValue());

    // The daemon must answer with a ProtocolError frame, then close.
    std::vector<uint8_t> inbuf;
    for (;;) {
        uint8_t chunk[1024];
        ssize_t n =
            ::recv(sock.value().fd(), chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        inbuf.insert(inbuf.end(), chunk, chunk + n);
    }
    FrameView frame;
    auto consumed =
        tryExtractFrame(inbuf.data(), inbuf.size(), {}, &frame);
    ASSERT_TRUE(consumed.hasValue());
    ASSERT_GT(consumed.value(), 0u);
    EXPECT_EQ(frame.opcode, Opcode::ProtocolError);
    auto msg = decodeProtocolError(frame, {});
    ASSERT_TRUE(msg.hasValue());
    EXPECT_NE(msg.value().find("corrupt"), std::string::npos);

    fx.server->stop();
    fx.server->join();
    EXPECT_EQ(fx.server->stats().protocolErrors, 1u);
}

// ---------------- Graceful shutdown ----------------

TEST(NetServer, SigtermLatchDrainsInFlightWork)
{
    resetShutdownLatch();
    installShutdownHandlers();
    ASSERT_FALSE(shutdownRequested());

    serve::EngineConfig ec;
    ec.workers = 2;
    Fixture fx("net_sigterm", 4, ec);

    auto client =
        Client::connect("127.0.0.1", fx.server->port());
    ASSERT_TRUE(client.hasValue());
    serve::WorkloadConfig wc;
    wc.keys = fx.keys;
    wc.rowsPerChip = kRows;
    serve::Workload workload(wc, 3);
    std::vector<serve::Request> reqs;
    for (size_t i = 0; i < 256; ++i)
        reqs.push_back(workload.next());
    ASSERT_TRUE(client.value()
                    .sendQueries(reqs.data(), reqs.size())
                    .hasValue());

    // Wait until the daemon has actually read the batch — shutdown
    // guarantees every *accepted* request an answer; bytes still in
    // the kernel receive buffer when the listener dies are the
    // client's retry problem.
    while (fx.server->stats().requests < reqs.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The real signal, through the real handler.
    ::raise(SIGTERM);
    waitForShutdown();
    EXPECT_TRUE(shutdownRequested());

    // The daemon's shutdown path: stop() closes the listener, drains
    // the engine, and flushes every in-flight answer before closing.
    fx.server->stop();

    std::vector<WireResponse> got;
    while (got.size() < reqs.size()) {
        auto st = client.value().recvResponses(got);
        ASSERT_TRUE(st.hasValue())
            << (st.hasValue() ? "" : st.error().describe());
    }
    EXPECT_EQ(got.size(), reqs.size());
    fx.server->join();

    // New connections must be refused after shutdown.
    auto late = Client::connect("127.0.0.1", fx.server->port());
    EXPECT_FALSE(late.hasValue());

    resetShutdownLatch();
}

TEST(NetServer, StopIsIdempotentAndJoinable)
{
    Fixture fx("net_stop_idem");
    fx.server->stop();
    fx.server->stop();
    fx.server->join();
    fx.server->join();
}

// ---------------- N clients hammer (TSan smoke) ----------------

TEST(NetServer, ManyClientsManyThreads)
{
    serve::EngineConfig ec;
    ec.workers = 3;
    ec.queueCapacity = 256;
    Fixture fx("net_hammer", 3, ec);

    const unsigned kClients = 4;
    const size_t kPerClient = 2000;
    std::vector<std::thread> threads;
    std::vector<uint64_t> answered(kClients, 0);
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            auto client =
                Client::connect("127.0.0.1", fx.server->port());
            ASSERT_TRUE(client.hasValue());
            serve::WorkloadConfig wc;
            wc.keys = fx.keys;
            wc.rowsPerChip = kRows;
            wc.unknownFraction = 0.1;
            serve::Workload workload(wc, 100 + c);
            std::vector<serve::Request> batch;
            std::vector<WireResponse> got;
            size_t sent = 0;
            while (sent < kPerClient) {
                batch.clear();
                for (size_t i = 0;
                     i < 50 && sent + batch.size() < kPerClient; ++i)
                    batch.push_back(workload.next());
                ASSERT_TRUE(
                    client.value()
                        .sendQueries(batch.data(), batch.size())
                        .hasValue());
                sent += batch.size();
                // Interleave sends and receives (pipeline of ~2).
                while (got.size() + 100 < sent) {
                    auto st = client.value().recvResponses(got);
                    ASSERT_TRUE(st.hasValue());
                }
            }
            while (got.size() < kPerClient) {
                auto st = client.value().recvResponses(got);
                ASSERT_TRUE(st.hasValue());
            }
            answered[c] = got.size();
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned c = 0; c < kClients; ++c)
        EXPECT_EQ(answered[c], kPerClient);

    fx.server->stop();
    fx.server->join();
    ServerStats stats = fx.server->stats();
    EXPECT_EQ(stats.requests, kClients * kPerClient);
    EXPECT_EQ(stats.responsesOk + stats.responsesNotFound +
                  stats.responsesRejected,
              stats.requests);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

} // namespace
} // namespace net
} // namespace reaper
