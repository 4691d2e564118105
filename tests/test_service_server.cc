/**
 * @file
 * In-process tests of the sweep service daemon: a real SweepService
 * on a real Unix socket, driven by real client sockets from many
 * threads. Lives in the sweep test binary so the `tsan` CTest label
 * covers the accept/reader/executor thread complement.
 *
 * The load-bearing assertions: N concurrent clients issuing the same
 * run receive byte-identical response lines while coalescing on one
 * shared TraceCache entry (the test pins the trace alive, so every
 * request must hit, never re-materialize); the admission gate rejects
 * with a structured "queue full" error and the connection survives;
 * and a shutdown request drains gracefully — work admitted before the
 * drain still completes and is delivered.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hh"
#include "service/run_spec.hh"
#include "service/server.hh"
#include "trace/trace_cache.hh"

using namespace sbsim;
using namespace sbsim::service;

namespace {

/** Temporary directory for the socket: AF_UNIX paths are capped at
 *  ~107 bytes, so build-tree paths are unusable. */
class TempSocketDir
{
  public:
    TempSocketDir()
    {
        char tmpl[] = "/tmp/sbsim-servetest-XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir ? dir : "";
    }

    ~TempSocketDir()
    {
        if (!dir_.empty()) {
            ::unlink(socketPath().c_str());
            ::rmdir(dir_.c_str());
        }
    }

    std::string socketPath() const { return dir_ + "/serve.sock"; }

  private:
    std::string dir_;
};

/** Minimal blocking line-oriented client over the Unix socket. */
class TestClient
{
  public:
    explicit TestClient(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd_,
                            reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << path << ": " << std::strerror(errno);
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendLine(const std::string &line)
    {
        std::string framed = line + '\n';
        std::size_t done = 0;
        while (done < framed.size()) {
            ssize_t n = ::send(fd_, framed.data() + done,
                               framed.size() - done, 0);
            ASSERT_GT(n, 0) << std::strerror(errno);
            done += static_cast<std::size_t>(n);
        }
    }

    /** Read one response line (without the newline); empty on EOF. */
    std::string
    readLine()
    {
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return std::string();
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** The benchmark spec every test request uses. */
RunSpec
testSpec()
{
    RunSpec spec;
    spec.benchmark = "embar";
    spec.refs = 20000;
    spec.streams = 4;
    return spec;
}

constexpr const char *kRunLine =
    R"({"id": 1, "op": "run", "spec": )"
    R"({"benchmark": "embar", "refs": 20000, "streams": 4}})";

} // namespace

TEST(ServiceServer, StartRejectsOverlongSocketPaths)
{
    ServiceConfig config;
    config.socketPath = "/tmp/" + std::string(200, 'x');
    SweepService service(config);
    std::string error;
    EXPECT_FALSE(service.start(error));
    EXPECT_NE(error.find("too long"), std::string::npos) << error;
}

TEST(ServiceServer, ManyClientsCoalesceOnTheSharedTraceCache)
{
    TraceCache &cache = TraceCache::instance();
    cache.clear();

    // Pin the request's reference trace alive from the test thread:
    // the cache is process-wide, so every daemon request must *hit*
    // this entry — a single re-materialization means the requests
    // were not actually sharing.
    const RunSpec spec = testSpec();
    std::shared_ptr<const MaterializedTrace> pin =
        cache.getOrMaterializeTrace(specSourceKey(spec), [&spec] {
            return MaterializedTrace::fromSource(*makeSpecInput(spec));
        });
    ASSERT_TRUE(pin);
    ASSERT_EQ(cache.stats().refTracesMaterialized, 1u);

    TempSocketDir tmp;
    ServiceConfig config;
    config.socketPath = tmp.socketPath();
    config.executors = 4;
    SweepService service(config);
    std::string error;
    ASSERT_TRUE(service.start(error)) << error;

    constexpr int kClients = 6;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            TestClient client(tmp.socketPath());
            client.sendLine(kRunLine);
            responses[i] = client.readLine();
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Every client got the same completed document, byte for byte
    // (run documents carry no timing fields, and all clients used
    // the same id).
    for (int i = 0; i < kClients; ++i) {
        ASSERT_FALSE(responses[i].empty()) << "client " << i;
        JsonParseResult r = parseJson(responses[i]);
        ASSERT_TRUE(r.ok()) << responses[i];
        EXPECT_TRUE(r.value.find("ok")->boolValue());
        EXPECT_EQ(r.value.find("kind")->stringValue(), "run");
        EXPECT_GT(r.value.find("references")->uintValue(), 0u);
        EXPECT_EQ(responses[i], responses[0]) << "client " << i;
    }

    // Nobody re-materialized: every request hit the pinned entry.
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.refTracesMaterialized, 1u);
    EXPECT_GE(stats.refTraceHits,
              static_cast<std::uint64_t>(kClients));

    // A sweep request exercises the planner path against the same
    // pinned entry, and the wire-level stats op reports the sharing.
    {
        TestClient client(tmp.socketPath());
        client.sendLine(
            R"({"id": 2, "op": "sweep", "spec": )"
            R"({"benchmark": "embar", "refs": 20000, "streams": 4},)"
            R"( "values": [1, 2]})");
        JsonParseResult r = parseJson(client.readLine());
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(r.value.find("ok")->boolValue());
        EXPECT_EQ(r.value.find("kind")->stringValue(), "sweep");

        client.sendLine(R"({"id": 3, "op": "stats"})");
        r = parseJson(client.readLine());
        ASSERT_TRUE(r.ok());
        const JsonValue *tc = r.value.find("trace_cache");
        ASSERT_NE(tc, nullptr);
        EXPECT_GE(tc->find("ref_trace_hits")->uintValue(),
                  static_cast<std::uint64_t>(kClients) + 1);
        EXPECT_EQ(tc->find("ref_traces_materialized")->uintValue(),
                  1u);
    }

    service.requestDrain();
    service.waitUntilStopped();

    // Bounded maps: dropping the pin leaves nothing behind.
    pin.reset();
    stats = cache.stats();
    EXPECT_EQ(stats.refTraceEntries, 0u);
    EXPECT_EQ(stats.missTraceEntries, 0u);
    EXPECT_EQ(stats.residentBytes, 0u);
    cache.clear();
}

TEST(ServiceServer, AdmissionGateRejectsWithoutKillingTheConnection)
{
    TempSocketDir tmp;
    ServiceConfig config;
    config.socketPath = tmp.socketPath();
    config.executors = 1;
    config.maxQueue = 0; // Every run/sweep is over the bound.
    SweepService service(config);
    std::string error;
    ASSERT_TRUE(service.start(error)) << error;

    TestClient client(tmp.socketPath());
    client.sendLine(kRunLine);
    JsonParseResult r = parseJson(client.readLine());
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value.find("ok")->boolValue());
    EXPECT_NE(r.value.find("error")->stringValue().find("queue full"),
              std::string::npos);

    // The rejection is per-request, not per-connection.
    client.sendLine(R"({"id": 9, "op": "ping"})");
    r = parseJson(client.readLine());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value.find("kind")->stringValue(), "pong");

    service.requestDrain();
    service.waitUntilStopped();
}

TEST(ServiceServer, OversizedStreamEngineIsRejectedAndNextRequestServed)
{
    TempSocketDir tmp;
    ServiceConfig config;
    config.socketPath = tmp.socketPath();
    config.executors = 1;
    SweepService service(config);
    std::string error;
    ASSERT_TRUE(service.start(error)) << error;

    // Each of these would build (or scan) an enormous structure if it
    // reached an executor; validation turns them away at parse time.
    TestClient client(tmp.socketPath());
    for (const char *line :
         {R"({"id": 1, "op": "run", "spec": {"benchmark": "embar",)"
          R"( "refs": 20000, "depth": 100000000}})",
          R"({"id": 2, "op": "run", "spec": {"benchmark": "embar",)"
          R"( "refs": 20000, "victim": 100000000}})",
          R"({"id": 3, "op": "sweep", "spec": {"benchmark": "embar",)"
          R"( "refs": 20000}, "values": [1, 100000000]})"}) {
        JsonParseResult r;
        client.sendLine(line);
        r = parseJson(client.readLine());
        ASSERT_TRUE(r.ok()) << line;
        EXPECT_FALSE(r.value.find("ok")->boolValue()) << line;
    }

    // The connection and the daemon carry on serving.
    client.sendLine(kRunLine);
    JsonParseResult r = parseJson(client.readLine());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value.find("ok")->boolValue());
    EXPECT_EQ(r.value.find("kind")->stringValue(), "run");

    service.requestDrain();
    service.waitUntilStopped();
}

TEST(ServiceServer, ShutdownRequestDrainsAdmittedWorkToCompletion)
{
    TraceCache::instance().clear();
    TempSocketDir tmp;
    ServiceConfig config;
    config.socketPath = tmp.socketPath();
    config.executors = 1;
    SweepService service(config);
    std::string error;
    ASSERT_TRUE(service.start(error)) << error;

    // Admit a run, then request shutdown on the same connection
    // before reading anything: "admitted means runs to completion",
    // so both the drain ack and the completed run must arrive.
    TestClient client(tmp.socketPath());
    client.sendLine(kRunLine);
    client.sendLine(R"({"id": 2, "op": "shutdown"})");

    bool saw_drain = false;
    bool saw_run = false;
    for (int i = 0; i < 2; ++i) {
        std::string line = client.readLine();
        ASSERT_FALSE(line.empty()) << "response " << i;
        JsonParseResult r = parseJson(line);
        ASSERT_TRUE(r.ok()) << line;
        EXPECT_TRUE(r.value.find("ok")->boolValue()) << line;
        const std::string kind = r.value.find("kind")->stringValue();
        if (kind == "drain")
            saw_drain = true;
        if (kind == "run")
            saw_run = true;
    }
    EXPECT_TRUE(saw_drain);
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(service.draining());

    service.waitUntilStopped();

    // The socket file is gone once the service is cold.
    struct stat st;
    EXPECT_NE(::stat(tmp.socketPath().c_str(), &st), 0);
    TraceCache::instance().clear();
}
