#include "server.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/sweep_runner.hh"
#include "trace/trace_cache.hh"
#include "util/logging.hh"

namespace sbsim {
namespace service {

namespace {

/** Self-pipe write end of the most recently started instance, for
 *  the async-signal-safe notifySignal() path. */
std::atomic<int> g_signalFd{-1};

} // namespace

SweepService::Connection::~Connection()
{
    ::close(fd);
}

void
SweepService::Connection::writeLine(const std::string &line)
{
    MutexLock lock(writeMutex);
    std::size_t done = 0;
    while (done < line.size()) {
        ssize_t n = ::send(fd, line.data() + done, line.size() - done,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // Client gone; the response has nowhere to go.
        }
        done += static_cast<std::size_t>(n);
    }
}

SweepService::SweepService(ServiceConfig config)
    : config_(std::move(config))
{
    if (config_.executors == 0)
        config_.executors = 1;
}

SweepService::~SweepService()
{
    if (started_ && !stopped_) {
        requestDrain();
        waitUntilStopped();
    }
}

bool
SweepService::start(std::string &error)
{
    sockaddr_un addr{};
    if (config_.socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long (max " +
                std::to_string(sizeof(addr.sun_path) - 1) +
                " bytes): " + config_.socketPath;
        return false;
    }

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
        error = std::string("pipe2: ") + std::strerror(errno);
        return false;
    }
    wakeRead_ = pipe_fds[0];
    wakeWrite_ = pipe_fds[1];

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // A previous instance's stale socket file would make bind fail;
    // the path is ours to manage.
    ::unlink(config_.socketPath.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "bind(" + config_.socketPath +
                "): " + std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return false;
    }

    for (unsigned i = 0; i < config_.executors; ++i)
        executorThreads_.emplace_back(&SweepService::executorLoop,
                                      this);
    acceptThread_ = std::thread(&SweepService::acceptLoop, this);
    started_ = true;
    g_signalFd.store(wakeWrite_);
    return true;
}

void
SweepService::requestDrain()
{
    {
        MutexLock lock(mutex_);
        if (draining_)
            return;
        draining_ = true;
        queueCv_.notifyAll();
    }
    // Wake the poll loops; the pipe is non-blocking and one byte is
    // enough (a full pipe already means a wake-up is pending).
    if (wakeWrite_ >= 0)
        (void)!::write(wakeWrite_, "d", 1);
}

void
SweepService::notifySignal()
{
    int fd = g_signalFd.load();
    if (fd >= 0)
        (void)!::write(fd, "s", 1);
}

bool
SweepService::draining() const
{
    MutexLock lock(mutex_);
    return draining_;
}

void
SweepService::waitUntilStopped()
{
    if (!started_ || stopped_)
        return;
    acceptThread_.join();
    for (std::thread &t : executorThreads_)
        t.join();
    std::vector<std::thread> readers;
    {
        MutexLock lock(mutex_);
        readers.swap(connThreads_);
    }
    for (std::thread &t : readers)
        t.join();

    int expected = wakeWrite_;
    g_signalFd.compare_exchange_strong(expected, -1);
    ::close(listenFd_);
    ::close(wakeRead_);
    ::close(wakeWrite_);
    listenFd_ = wakeRead_ = wakeWrite_ = -1;
    ::unlink(config_.socketPath.c_str());
    stopped_ = true;

    // The drain-time flush: with the process exiting, this report is
    // the cache's last (often only) visibility.
    if (config_.traceCache)
        printTraceCacheReport(TraceCache::instance().stats(), stderr);
}

void
SweepService::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakeRead_, POLLIN, 0}};
        int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            SBSIM_WARN("service: poll: ", std::strerror(errno));
            requestDrain();
            return;
        }
        if (fds[1].revents != 0) {
            // Self-pipe: a drain was requested (signal or shutdown
            // request). Promote it if the signal path got here first.
            requestDrain();
            return;
        }
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int cfd =
            ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd < 0)
            continue;
        auto conn = std::make_shared<Connection>(cfd);
        MutexLock lock(mutex_);
        if (draining_)
            return; // conn closes on scope exit; client sees EOF.
        connThreads_.emplace_back(&SweepService::connectionLoop, this,
                                  std::move(conn));
    }
}

void
SweepService::connectionLoop(std::shared_ptr<Connection> conn)
{
    std::string buf;
    char chunk[4096];
    while (!draining()) {
        pollfd p = {conn->fd, POLLIN, 0};
        int r = ::poll(&p, 1, 200);
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0)
            continue; // Timeout tick: re-check the drain flag.
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // EOF or error: the client is done.
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl;
             (nl = buf.find('\n', start)) != std::string::npos;
             start = nl + 1)
            handleLine(conn, std::string_view(buf).substr(
                                 start, nl - start));
        buf.erase(0, start);
        if (buf.size() > kMaxRequestLine) {
            conn->writeLine(errorResponse(
                "null", "request line exceeds " +
                            std::to_string(kMaxRequestLine) +
                            " bytes"));
            break;
        }
    }
    // Stop reading; in-flight responses still write until the last
    // executor drops its reference.
    ::shutdown(conn->fd, SHUT_RD);
}

void
SweepService::handleLine(const std::shared_ptr<Connection> &conn,
                         std::string_view line)
{
    // Tolerate blank keep-alive lines between requests.
    if (line.find_first_not_of(" \t\r") == std::string_view::npos)
        return;

    RequestParse parsed = parseRequest(line);
    if (!parsed.ok()) {
        if (parsed.syntaxError)
            conn->writeLine(errorResponse(parsed.request.idJson,
                                          parsed.error,
                                          parsed.errorOffset));
        else
            conn->writeLine(errorResponse(parsed.request.idJson,
                                          parsed.error));
        return;
    }

    Request &req = parsed.request;
    switch (req.op) {
      case RequestOp::PING:
        conn->writeLine(simpleResponse(req.idJson, "pong"));
        return;
      case RequestOp::STATS:
        conn->writeLine(statsResponse(
            req.idJson, TraceCache::instance().stats()));
        return;
      case RequestOp::SHUTDOWN:
        conn->writeLine(simpleResponse(req.idJson, "drain"));
        requestDrain();
        return;
      case RequestOp::RUN:
      case RequestOp::SWEEP:
        break;
    }

    // Admission gate: bounded queue, explicit rejection. Admitted
    // means "will run to completion, even through a drain".
    std::string reject;
    {
        MutexLock lock(mutex_);
        if (draining_) {
            reject = "draining: not accepting new requests";
        } else if (queue_.size() >= config_.maxQueue) {
            reject = "queue full (" + std::to_string(queue_.size()) +
                     " pending); request rejected";
        } else {
            queue_.push_back(WorkItem{std::move(req), conn});
            queueCv_.notifyOne();
        }
    }
    if (!reject.empty())
        conn->writeLine(errorResponse(req.idJson, reject));
}

void
SweepService::executorLoop()
{
    for (;;) {
        WorkItem item;
        {
            MutexLock lock(mutex_);
            while (queue_.empty() && !draining_)
                queueCv_.wait(mutex_);
            if (queue_.empty())
                return; // Draining and fully drained.
            item = std::move(queue_.front());
            queue_.pop_front();
        }
        execute(item);
    }
}

void
SweepService::execute(const WorkItem &item)
{
    const Request &req = item.request;
    const std::string kind =
        req.op == RequestOp::RUN ? "run" : "sweep";
    try {
        // TraceReader exits the process on an unreadable file, which
        // a daemon must never let a request do; probe first.
        if (!req.spec.traceFile.empty() &&
            !std::ifstream(req.spec.traceFile).good()) {
            item.conn->writeLine(errorResponse(
                req.idJson,
                "cannot open trace file: " + req.spec.traceFile));
            return;
        }

        if (req.op == RequestOp::RUN) {
            RunExecution exec =
                executeRun(req.spec, nullptr, config_.traceCache);
            std::ostringstream doc;
            runMetrics(exec.output).writeJson(doc);
            item.conn->writeLine(resultResponse(
                req.idJson, kind, exec.references, doc.str()));
            return;
        }

        std::vector<SweepJob> jobs =
            buildSweepJobs(req.spec, req.values);
        SweepRunner runner(config_.sweepJobs);
        runner.setHeartbeat(false);
        // One report at drain covers the whole service lifetime;
        // per-request reports would interleave across executors.
        runner.setCacheReport(false);
        runner.setTraceCacheEnabled(config_.traceCache);
        std::vector<SweepResult> results = runner.run(jobs);
        std::uint64_t refs = 0;
        for (const SweepResult &r : results)
            refs += r.references;
        std::ostringstream doc;
        writeSweepJson(results, doc, runner);
        item.conn->writeLine(
            resultResponse(req.idJson, kind, refs, doc.str()));
    } catch (const std::exception &e) {
        item.conn->writeLine(errorResponse(
            req.idJson, std::string(kind) + " failed: " + e.what()));
    }
}

} // namespace service
} // namespace sbsim
