#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMs = 1000000;

[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

[[noreturn]] void fail_errno(const std::string& what) {
  fail(what + ": " + std::strerror(errno));
}

}  // namespace

// --- Daemon -------------------------------------------------------------------

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (::sched_getaffinity(0, sizeof all, &all) != 0) fail_errno("sched_getaffinity");
  split.generator = all;
  split.daemon = all;
  split.daemon_cpus = static_cast<unsigned>(CPU_COUNT(&all));
  if (split.daemon_cpus < 2) return split;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &all)) last = cpu;
  CPU_ZERO(&split.generator);
  CPU_SET(last, &split.generator);
  CPU_CLR(last, &split.daemon);
  --split.daemon_cpus;
  return split;
}

void pin_calling_thread(const cpu_set_t& cpus) {
  if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0) fail_errno("sched_setaffinity");
}

IdleSpinners::IdleSpinners(const cpu_set_t& cpus) {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &cpus)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof one, &one);
      const sched_param param{};
      ::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const cpu_set_t* cpus) {
  // Built before fork(): the child of a multithreaded parent may only make
  // async-signal-safe calls until it execs.
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  int err_pipe[2];
  if (::pipe(err_pipe) != 0) fail_errno("pipe");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) fail_errno("fork");
  if (pid == 0) {
    // The daemon must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(null_fd);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    if (cpus != nullptr) ::sched_setaffinity(0, sizeof *cpus, cpus);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(err_pipe[1]);
  stderr_fd_ = err_pipe[0];
  try {
    wait_for_port();
  } catch (...) {
    kill_child();  // no destructor runs for a constructor that throws
    throw;
  }
}

void Daemon::wait_for_port() {
  // The daemon advertises its ephemeral port on stderr.
  std::string text;
  const std::int64_t deadline = now_ns() + 60000 * kMs;
  const std::string marker = "listening on 127.0.0.1:";
  while (port_ == 0) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) fail("ndetd did not start listening");
    if (::poll(&pfd, 1, static_cast<int>(left / kMs) + 1) < 0 && errno != EINTR)
      fail_errno("poll");
    char chunk[512];
    const ssize_t got = ::read(stderr_fd_, chunk, sizeof chunk);
    if (got == 0) fail("ndetd exited before listening: " + text);
    if (got < 0) continue;
    text.append(chunk, static_cast<std::size_t>(got));
    const std::size_t at = text.find(marker);
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos)
      port_ = std::atoi(text.c_str() + at + marker.size());
  }
}

double Daemon::stop(bool* clean) {
  ::kill(pid_, SIGTERM);
  int status = 0;
  rusage usage{};
  const std::int64_t deadline = now_ns() + 30000 * kMs;
  pid_t done = 0;
  while ((done = ::wait4(pid_, &status, WNOHANG, &usage)) == 0 && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    done = ::wait4(pid_, &status, 0, &usage);
  }
  pid_ = -1;
  if (clean) *clean = done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Daemon::kill_child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
}

Daemon::~Daemon() { kill_child(); }

// --- machine interference ---------------------------------------------------------

double StepRecord::steal_share(std::int64_t from_ns, std::int64_t to_ns) const {
  static const double cpus = static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  if (steal.size() < 2) return 0.0;
  std::size_t lo = 0, hi = steal.size() - 1;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i].at_ns <= from_ns) lo = i;
    if (steal[i].at_ns >= to_ns) {
      hi = i;
      break;
    }
  }
  if (hi <= lo) return 0.0;
  const double wall = static_cast<double>(steal[hi].at_ns - steal[lo].at_ns) * 1e-9;
  return (steal[hi].stolen_s - steal[lo].stolen_s) / (wall * cpus);
}

// --- responses ----------------------------------------------------------------

std::uint64_t payload_hash(const char* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ull ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    hash = (hash ^ word) * 0x9e3779b97f4a7c15ull;
    hash ^= hash >> 32;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, data + i, size - i);
  hash = (hash ^ tail) * 0xff51afd7ed558ccdull;
  return hash ^ (hash >> 29);
}

Response parse_response(const char* line, std::size_t size) {
  Response response;
  const std::string_view text(line, size);
  const std::string_view id_key = "{\"id\":";
  if (text.substr(0, id_key.size()) != id_key) return response;
  std::from_chars(line + id_key.size(), line + size, response.id);
  response.ok = text.find("\"ok\":true") != std::string_view::npos;
  const std::size_t elapsed = text.find("\"elapsed_ms\":");
  if (elapsed != std::string_view::npos)
    response.elapsed_ms = std::strtod(line + elapsed + 13, nullptr);
  const std::size_t result = text.find("\"result\":");
  if (result != std::string_view::npos) {
    const std::size_t begin = result + 9;
    std::size_t end = text.rfind(",\"session\":");
    if (end == std::string_view::npos || end < begin) end = size - 1;
    response.result_size = end - begin;
    response.result_hash = payload_hash(line + begin, end - begin);
  }
  return response;
}

// --- OpenLoopClient -----------------------------------------------------------

struct OpenLoopClient::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  std::string in;
};

OpenLoopClient::OpenLoopClient(int port, unsigned connections) {
  for (unsigned c = 0; c < connections; ++c) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) fail_errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
      fail_errno("connect to ndetd");
    const int one = 1;
    ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (const std::unique_ptr<Conn>& conn : conns_)
    if (conn->fd >= 0) ::close(conn->fd);
}

void OpenLoopClient::pump(const LineHandler& on_line) {
  std::vector<pollfd> pfds(conns_.size());
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    pfds[c].fd = conns_[c]->fd;
    pfds[c].events = POLLIN;
    pfds[c].revents = 0;
  }
  const int ready = ::poll(pfds.data(), pfds.size(), 0);
  if (ready < 0 && errno != EINTR) fail_errno("poll");
  if (ready <= 0) return;
  char chunk[1 << 16];
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = *conns_[c];
    if (pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) {
      while (true) {
        const ssize_t got = ::read(conn.fd, chunk, sizeof chunk);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) {
          if (got == 0) fail("ndetd closed a connection");
          if (errno != EAGAIN && errno != EWOULDBLOCK) fail_errno("read");
          break;
        }
        conn.in.append(chunk, static_cast<std::size_t>(got));
      }
      // Acknowledge at once; Linux clears the flag after every receive.
      // ndetd leaves Nagle's algorithm on, so against a client that delays
      // its ACKs it may hold each response until that connection's next
      // request: latency then locks to the per-connection inter-arrival
      // time in some runs and not in others.
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      const std::int64_t read_ns = now_ns();
      std::size_t begin = 0;
      while (true) {
        const void* nl = std::memchr(conn.in.data() + begin, '\n', conn.in.size() - begin);
        if (nl == nullptr) break;
        const std::size_t end = static_cast<const char*>(nl) - conn.in.data();
        on_line(conn.in.data() + begin, end - begin, read_ns);
        begin = end + 1;
      }
      conn.in.erase(0, begin);
    }
  }
}

namespace {

void flush(int fd, std::string& out, std::size_t& sent) {
  while (sent < out.size()) {
    const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) fail_errno("write to ndetd");
    sent += static_cast<std::size_t>(n);
  }
  out.clear();
  sent = 0;
}

std::uint64_t next_request_id() {
  static std::uint64_t next = 1;
  return next++;
}

void append_line(std::string& out, std::uint64_t id, const std::string& body) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, id).ptr;
  out += "{\"id\":";
  out.append(digits, end);
  out += ',';
  out += body;
  out += '\n';
}

}  // namespace

StepRecord OpenLoopClient::run_step(const std::vector<Planned>& requests,
                                    double rate, double timeout_s,
                                    std::size_t ping_every) {
  StepRecord step;
  step.rate = rate;
  const std::size_t n = requests.size();
  step.requests.resize(n);
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::unordered_map<std::uint64_t, std::int64_t> pings;  // id -> sent
  index_of.reserve(n * 2);

  const std::int64_t start = now_ns() + kMs;
  const double spacing_ns = 1e9 / rate;
  auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * spacing_ns);
  };
  const std::int64_t give_up =
      (n == 0 ? start : due(n - 1)) + static_cast<std::int64_t>(timeout_s * 1e9);

  std::size_t next = 0, completed = 0;
  bool backlog_taken = false;
  auto on_line = [&](const char* line, std::size_t size, std::int64_t read_ns) {
    const Response response = parse_response(line, size);
    if (const auto ping = pings.find(response.id); ping != pings.end()) {
      step.ping_rtt_us.push_back(static_cast<double>(read_ns - ping->second) / 1e3);
      pings.erase(ping);
      return;
    }
    const auto it = index_of.find(response.id);
    if (it == index_of.end()) return;
    RequestRecord& record = step.requests[it->second];
    if (record.done_ns != 0) return;
    record.done_ns = read_ns;
    record.ok = response.ok;
    record.elapsed_ms = response.elapsed_ms;
    record.result_hash = response.result_hash;
    record.result_size = response.result_size;
    ++completed;
  };

  step.steal.push_back({now_ns(), stolen_cpu_seconds()});
  while (completed < n || !pings.empty()) {
    std::int64_t now = now_ns();
    if (now - step.steal.back().at_ns >= 50 * kMs)
      step.steal.push_back({now, stolen_cpu_seconds()});
    while (next < n && due(next) <= now) {
      Conn& conn = *conns_[next % conns_.size()];
      const std::uint64_t id = next_request_id();
      index_of.emplace(id, next);
      append_line(conn.out, id, requests[next].line);
      RequestRecord& record = step.requests[next];
      record.due_ns = due(next);
      record.sent_ns = now;
      record.key = requests[next].key;
      ++next;
      if (ping_every > 0 && next % ping_every == 0) {
        const std::uint64_t ping_id = next_request_id();
        append_line(conn.out, ping_id, "\"type\":\"ping\"}");
        pings.emplace(ping_id, now);
      }
    }
    for (const std::unique_ptr<Conn>& conn : conns_) flush(conn->fd, conn->out, conn->out_sent);
    if (next == n && !backlog_taken) {
      step.backlog_end = n - completed;
      backlog_taken = true;
    }
    if (now > give_up) break;
    pump(on_line);
  }
  step.steal.push_back({now_ns(), stolen_cpu_seconds()});
  return step;
}

std::string OpenLoopClient::call(const std::string& line) {
  Conn& conn = *conns_.front();
  const std::uint64_t id = next_request_id();
  append_line(conn.out, id, line);
  std::string reply;
  const std::int64_t deadline = now_ns() + 60000 * kMs;
  while (reply.empty()) {
    flush(conn.fd, conn.out, conn.out_sent);
    if (now_ns() > deadline) fail("no reply from ndetd");
    pump([&](const char* text, std::size_t size, std::int64_t) {
      if (parse_response(text, size).id == id) reply.assign(text, size);
    });
  }
  return reply;
}

}  // namespace perfbench
