// serve-open and fleet-open: the front door, one job in flight.
//
// The generator (this thread) drives one connection: a TCP socket into
// `saim_serve --listen --stream --workers 2` (serve-open), or the
// stdin/stdout pipes of `saim_shard --shards 2 --workers 1` (fleet-open).
// It runs closed loop: each tiny QKP job is sent the moment the previous
// job's result line arrived, and its latency runs from its send to the
// arrival of its own result line. The solver does almost nothing per job,
// so the latency is the front door's: reactor cadence, session emit,
// socket or pipes, and for fleet-open the router and shard pumps.
//
// Closed loop, because under an open-loop schedule a host stall delays
// every job queued behind it, and the tails then follow the host's steal
// time rather than the program. The generator and the server share one
// CPU for the same reason: a job that waits on waking another virtual CPU
// waits on the host (measurements in perfbench/NOTES.md).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/backend.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "reference.hpp"
#include "service/backend_factory.hpp"
#include "service/request_builders.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace svc = saim::service;
namespace sp = saim::problems;
using saim::util::mean_of;

constexpr std::size_t kInstances = 8;
constexpr std::size_t kQkpN = 30;
constexpr int kQkpDensity = 25;
/// Timed jobs: two outer iterations of 30 sweeps. The service spends about
/// 0.3 ms on one; the rest of the latency is the front door's.
constexpr std::size_t kIterations = 2;
constexpr std::size_t kSweeps = 30;
/// The window stays open until this many jobs are answered, so p99 has
/// at least 10 samples beyond it at any host speed.
constexpr std::size_t kMinJobs = 4000;
/// peak_rss_mb is read when this many jobs are answered. saim_serve keeps
/// about 22 KB per job it has served on a connection, so a reading at the
/// window's end would follow jobs_per_s.
constexpr std::size_t kRssAtJobs = kMinJobs;
/// A served set-up takes about 20 ms, so it is repeated more often than an
/// in-process one to make the median steady.
constexpr std::size_t kServedSetupRepeats = 3 * kSetupRepeats;
/// quality_ratio comes from a fixed probe sent after the window: at two
/// iterations almost no timed job finds a feasible sample (at four, 12%
/// did, and their mean moved 4.7% between workload seeds). At 30
/// iterations every probe job does.
constexpr std::size_t kQualityJobs = 64;
constexpr std::size_t kQualityIterations = 30;
/// fleet-open: share of lines that repeat an earlier job (same instance
/// and solver seed, fresh id), drawn from the last kRepeatWindow originals
/// so the twin is still cached. Well below half: a 50/50 mix puts the
/// median on the boundary between the hit and miss modes.
constexpr double kRepeatShare = 0.2;
constexpr std::size_t kRepeatWindow = 64;
/// Every kCrossCheckEvery-th original job is re-solved in process.
constexpr std::size_t kCrossCheckEvery = 8;
constexpr double kControlTimeoutSeconds = 10.0;

struct Job {
  std::size_t instance = 0;
  std::uint64_t seed = 0;
  std::size_t iterations = kIterations;
  long twin = -1;  ///< earlier job this line repeats, or -1
  bool traced = false;
  Clock::time_point sent;
  double late_ms = 0.0;  ///< previous reply's arrival to this send
};

std::string job_id(std::size_t index) {
  std::string id = "j";
  return id += std::to_string(index);
}

std::string job_line(const std::string& id, const Job& job) {
  return "{\"id\":\"" + id + "\",\"gen\":\"qkp:" +
         std::to_string(kQkpN) + "-" + std::to_string(kQkpDensity) + "-" +
         std::to_string(instance_index(job.instance)) +
         "\",\"iterations\":" + std::to_string(job.iterations) +
         ",\"sweeps\":" + std::to_string(kSweeps) +
         ",\"seed\":" + std::to_string(job.seed) +
         (job.traced ? ",\"trace\":true" : "") + "}\n";
}

/// The workload seed drives each job's instance, its solver seed (unique
/// per original job) and, on fleet-open, the repeats. The traced run
/// traces every other job, so the untraced half measured in the same
/// run gives the tracing overhead.
class JobStream {
 public:
  JobStream(std::uint64_t seed, bool repeats, bool trace)
      : seed_(seed), rng_(splitmix(seed ^ 0x5EEDULL)), repeats_(repeats),
        trace_(trace) {}

  Job next(const std::vector<Job>& earlier) {
    const std::size_t i = earlier.size();
    Job job;
    if (repeats_ && !originals_.empty() && uniform01() < kRepeatShare) {
      const std::size_t window = std::min(originals_.size(), kRepeatWindow);
      job.twin = static_cast<long>(
          originals_[originals_.size() - 1 - draw() % window]);
      const Job& twin = earlier[static_cast<std::size_t>(job.twin)];
      job.instance = twin.instance;
      job.seed = twin.seed;
    } else {
      job.instance = draw() % kInstances;
      job.seed = (seed_ % 100000) * 10'000'000ULL + i + 1;  // unique
      originals_.push_back(i);
    }
    job.traced = trace_ && i % 2 == 0;
    return job;
  }

 private:
  std::uint64_t draw() { return splitmix(rng_++); }
  double uniform01() { return static_cast<double>(draw() >> 11) * 0x1.0p-53; }

  std::uint64_t seed_;
  std::uint64_t rng_;
  bool repeats_;
  bool trace_;
  std::vector<std::size_t> originals_;
};

// ------------------------------------------------------------ processes

/// Pins this process, and so every server it spawns, to the highest CPU
/// it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

void set_nonblocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

using Lines = std::vector<std::pair<Clock::time_point, std::string>>;

/// A spawned server plus the one connection the generator drives it over.
class Endpoint {
 public:
  Endpoint(const RunOptions& options, bool fleet) {
    const std::string log = options.work_dir + "/" + options.workload + ".log";
    std::vector<std::string> argv;
    int child_in = -1, child_out = -1;
    int to_child[2] = {-1, -1}, from_child[2] = {-1, -1};
    const std::string port_file =
        options.work_dir + "/serve-" + std::to_string(getpid()) + ".port";
    if (fleet) {
      argv = {options.bin_dir + "/saim_shard", "--shards", "2", "--workers",
              "1", "--log-level", "warn"};
      if (pipe2(to_child, O_CLOEXEC) != 0 ||
          pipe2(from_child, O_CLOEXEC) != 0) {
        throw std::runtime_error("pipe2 failed");
      }
      child_in = to_child[0];
      child_out = from_child[1];
    } else {
      unlink(port_file.c_str());
      argv = {options.bin_dir + "/saim_serve", "--listen", "127.0.0.1:0",
              "--port-file", port_file, "--stream", "--workers", "2",
              "--log-level", "warn"};
      child_in = open("/dev/null", O_RDONLY | O_CLOEXEC);
      child_out = open("/dev/null", O_WRONLY | O_CLOEXEC);
    }
    const int log_fd =
        open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    spawned_ = Clock::now();
    pid_ = fork();
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(child_in, 0);
      dup2(child_out, 1);
      if (log_fd >= 0) dup2(log_fd, 2);
      std::vector<char*> args;
      for (auto& a : argv) args.push_back(a.data());
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    if (log_fd >= 0) close(log_fd);
    close(child_in);
    close(child_out);
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (fleet) {
      wfd_ = to_child[1];
      rfd_ = from_child[0];
    } else {
      try {
        wfd_ = rfd_ = connect_when_listening(port_file);
      } catch (...) {
        if (pid_ > 0) {  // no destructor runs for a throwing constructor
          kill(pid_, SIGKILL);
          waitpid(pid_, nullptr, 0);
        }
        throw;
      }
    }
    set_nonblocking(wfd_);
    set_nonblocking(rfd_);
  }

  ~Endpoint() { stop(); }
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] Clock::time_point spawned() const noexcept {
    return spawned_;
  }
  [[nodiscard]] bool eof() const noexcept { return eof_; }

  /// Sends what it can of `out` without blocking; drops the sent prefix.
  void write_some(std::string& out) {
    while (!out.empty()) {
      const ssize_t n = ::write(wfd_, out.data(), out.size());
      if (n > 0) {
        out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // EAGAIN, or a dead peer the reply count will expose
      }
    }
  }

  /// Appends every complete line readable now, stamped with its arrival.
  void read_some(Lines& lines) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(rfd_, buf, sizeof buf);
      if (n > 0) {
        const auto now = Clock::now();
        inbuf_.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl; (nl = inbuf_.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1) {
          lines.emplace_back(now, inbuf_.substr(start, nl - start));
        }
        inbuf_.erase(0, start);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        if (n == 0) eof_ = true;
        return;
      }
    }
  }

  /// Sends `out` and reads replies into `lines` until `done(lines)` holds;
  /// false on EOF or when the control timeout passes first.
  template <typename Done>
  bool exchange(std::string out, Lines& lines, Done done) {
    const auto deadline = after(kControlTimeoutSeconds);
    for (;;) {
      write_some(out);
      read_some(lines);
      if (out.empty() && done(lines)) return true;
      if (eof_ || Clock::now() > deadline) return false;
      pollfd fds[2] = {{rfd_, POLLIN, 0}, {wfd_, POLLOUT, 0}};
      nfds_t count = 1;
      if (!out.empty() && wfd_ == rfd_) {
        fds[0].events |= POLLOUT;
      } else if (!out.empty()) {
        count = 2;
      }
      poll(fds, count, 10);
    }
  }

  /// Sends one line and returns the first reply line satisfying `accept`
  /// (std::nullopt on timeout or EOF). Replies before it are dropped.
  template <typename Pred>
  std::optional<std::pair<Clock::time_point, std::string>> request(
      std::string line, Pred accept) {
    Lines got;
    std::size_t seen = 0;
    std::optional<std::pair<Clock::time_point, std::string>> hit;
    exchange(std::move(line), got, [&](const Lines& lines) {
      for (; seen < lines.size() && !hit; ++seen) {
        if (accept(lines[seen].second)) hit = lines[seen];
      }
      return hit.has_value();
    });
    return hit;
  }

  /// Polite shutdown ({"cmd":"shutdown"} and wait for the bye), then
  /// reaps the process, killing it if it overstays.
  void stop() {
    if (pid_ <= 0) return;
    if (wfd_ >= 0) {
      request("{\"cmd\":\"shutdown\"}\n", [](const std::string& l) {
        return l.find("\"bye\"") != std::string::npos;
      });
    }
    if (wfd_ >= 0 && wfd_ != rfd_) close(wfd_);
    if (rfd_ >= 0) close(rfd_);
    wfd_ = rfd_ = -1;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  int connect_when_listening(const std::string& port_file) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int port = 0;
    while (Clock::now() < deadline) {
      std::ifstream in(port_file);
      if (in >> port && port > 0) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("saim_serve exited before listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    unlink(port_file.c_str());
    if (port <= 0) throw std::runtime_error("saim_serve never listened");
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (fd >= 0) close(fd);
      throw std::runtime_error("cannot connect to saim_serve");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

  pid_t pid_ = -1;
  int wfd_ = -1;
  int rfd_ = -1;
  std::string inbuf_;
  bool eof_ = false;
  Clock::time_point spawned_;
};

double tree_cpu_ms(pid_t root) {
  double total = 0.0;
  for (const pid_t p : process_tree(root)) total += cpu_ms(p);
  return total;
}

double tree_peak_rss_mb(pid_t root) {
  double total = 0.0;
  for (const pid_t p : process_tree(root)) total += peak_rss_mb(p);
  return total;
}

/// In-process reference solve of one job: the same request the server
/// builds from the line, run through SaimSolver as the service's solo
/// path does.
saim::core::SolveResult solve_in_process(
    const std::shared_ptr<const sp::QkpInstance>& instance, const Job& job) {
  svc::SolveRequest r = svc::request_for(instance);
  r.backend.sweeps = kSweeps;
  r.options.iterations = job.iterations;
  r.options.seed = job.seed;
  auto backend = svc::make_backend(r.backend);
  backend->set_batch_threads(1);
  saim::core::SaimSolver solver(*r.problem, *backend, r.options);
  return solver.solve(r.evaluator);
}

struct Reply {
  bool seen = false;
  double latency_ms = 0.0;
  double best_cost = 0.0;
  bool feasible = false;
  std::uint64_t feasible_count = 0;
  std::uint64_t total_sweeps = 0;
  bool timing = false;
  double queue_ms = 0.0;
  double setup_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  double emit_ms = 0.0;
};

/// Parses the result lines of `jobs` (ids "j<index>") into one Reply per
/// job; every line that is not exactly one completed result of a known
/// job counts as a failure. Returns the seq numbers seen.
std::vector<std::int64_t> parse_replies(const Lines& lines,
                                        const std::vector<Job>& jobs,
                                        std::vector<Reply>& got,
                                        Outcome& out) {
  std::vector<std::int64_t> seqs;
  got.assign(jobs.size(), Reply{});
  for (const auto& [when, line] : lines) {
    saim::util::JsonValue v;
    try {
      v = saim::util::parse_json(line);
    } catch (const std::exception&) {
      out.fail("unparseable reply line");
      continue;
    }
    const auto* id = v.find("id");
    const std::string sid = id ? id->as_string() : "";
    char* end = nullptr;
    const unsigned long idx =
        sid.size() > 1 && sid[0] == 'j'
            ? std::strtoul(sid.c_str() + 1, &end, 10)
            : jobs.size();
    if (idx >= jobs.size() || (end && *end != '\0')) {
      out.fail("reply for unknown id '" + sid + "'");
      continue;
    }
    Reply& r = got[idx];
    if (r.seen) {
      out.fail(sid + ": answered twice");
      continue;
    }
    const auto* status = v.find("status");
    if (!status || status->as_string() != "completed") {
      out.fail(sid + ": not completed: " + line.substr(0, 160));
      continue;
    }
    r.seen = true;
    if (const auto* seq = v.find("seq")) seqs.push_back(seq->as_int());
    r.latency_ms = ms_between(jobs[idx].sent, when);
    const auto* cost = v.find("best_cost");
    r.feasible = cost && cost->is_number();
    r.best_cost = r.feasible ? cost->as_double() : 0.0;
    if (const auto* f = v.find("feasible_count")) r.feasible_count = f->as_uint();
    if (const auto* t = v.find("total_sweeps")) r.total_sweeps = t->as_uint();
    if (const auto* t = v.find("timing"); t && t->is_object()) {
      r.timing = true;
      auto f = [&](const char* k) {
        const auto* x = t->find(k);
        return x ? x->as_double() : 0.0;
      };
      r.queue_ms = f("queue_ms");
      r.setup_ms = f("setup_ms");
      r.solve_ms = f("solve_ms");
      r.total_ms = f("total_ms");
      r.emit_ms = f("emit_ms");
    }
  }
  return seqs;
}

/// Re-solves `job` in process; its best cost, feasible count and sweeps
/// must equal the served reply, and its best_x must re-judge to that cost.
bool agrees_in_process(const std::shared_ptr<const sp::QkpInstance>& instance,
                       const Job& job, const Reply& r) {
  const auto local = solve_in_process(instance, job);
  if (local.found_feasible != r.feasible ||
      local.feasible_count != r.feasible_count ||
      local.total_sweeps != r.total_sweeps) {
    return false;
  }
  if (!r.feasible) return true;
  const auto verdict = saim::core::make_qkp_evaluator(*instance)(local.best_x);
  return local.best_cost == r.best_cost && verdict.feasible &&
         verdict.cost == r.best_cost;
}

}  // namespace

Outcome run_served_workload(const RunOptions& options) {
  const bool fleet = options.workload == "fleet-open";
  Outcome out;
  pin_to_one_cpu();

  std::vector<std::shared_ptr<const sp::QkpInstance>> instances;
  std::vector<Reference> refs;
  saim::util::JsonValue::Array ref_json;
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(std::make_shared<const sp::QkpInstance>(
        sp::make_paper_qkp(kQkpN, kQkpDensity, instance_index(i))));
    refs.push_back(qkp_reference(*instances.back()));
    ref_json.push_back(saim::util::JsonValue::Object{
        {"instance", instances.back()->name()},
        {"profit", refs.back().profit},
        {"kind", refs.back().kind}});
  }
  out.note("instances", std::move(ref_json));
  out.note("reference_kind", "heuristic");

  // ---- set-up: spawn to the replies of one warm-up job per instance, at
  // the probe's shape, several times; the last server stays up
  std::string warm;
  for (std::size_t k = 0; k < kInstances; ++k) {
    Job job;
    job.instance = k;
    job.iterations = kQualityIterations;
    std::string id = "warm";
    warm += job_line(id += std::to_string(k), job);
  }
  std::vector<double> setups;
  std::unique_ptr<Endpoint> ep;
  for (std::size_t r = 0; r < kServedSetupRepeats; ++r) {
    ep.reset();  // stops the previous server before spawning anew
    ep = std::make_unique<Endpoint>(options, fleet);
    Lines got;
    if (!ep->exchange(warm, got,
                      [](const Lines& l) { return l.size() >= kInstances; })) {
      throw std::runtime_error("no reply to the warm-up jobs");
    }
    for (const auto& reply : got) {
      if (reply.second.find("\"status\":\"completed\"") == std::string::npos) {
        out.fail("warm-up job not completed: " + reply.second.substr(0, 160));
      }
    }
    setups.push_back(ms_between(ep->spawned(), got.back().first) / 1000.0);
  }

  // ---- the closed-loop window
  JobStream stream(options.seed, fleet, options.trace);
  std::vector<Job> jobs;
  Lines replies;
  double peak_mb = 0.0;
  const double cpu0 = tree_cpu_ms(ep->pid());
  const auto t0 = Clock::now();
  const auto window_end = after(options.seconds);
  auto last_reply = t0;
  while (Clock::now() < window_end || jobs.size() < kMinJobs) {
    Job job = stream.next(jobs);
    job.sent = Clock::now();
    job.late_ms = ms_between(last_reply, job.sent);
    const std::size_t before = replies.size();
    jobs.push_back(job);
    if (!ep->exchange(job_line(job_id(jobs.size() - 1), job),
                      replies,
                      [&](const Lines& l) { return l.size() > before; })) {
      out.fail(job_id(jobs.size() - 1) +
               ": no reply within the control timeout; window closed");
      break;
    }
    last_reply = replies.back().first;
    if (jobs.size() == kRssAtJobs) peak_mb = tree_peak_rss_mb(ep->pid());
  }
  const std::size_t timed = jobs.size();
  const double window_s = ms_between(t0, last_reply) / 1000.0;
  const double cpu_per_job =
      (tree_cpu_ms(ep->pid()) - cpu0) / static_cast<double>(timed);

  // ---- the quality probe, untimed, pipelined
  std::string probe;
  for (std::size_t q = 0; q < kQualityJobs; ++q) {
    Job job;
    job.instance = q % kInstances;
    job.seed = splitmix(options.seed * 1000003ULL + q) >> 12;  // JSON-exact
    job.iterations = kQualityIterations;
    job.sent = Clock::now();
    probe += job_line(job_id(jobs.size()), job);
    jobs.push_back(job);
  }
  if (!ep->exchange(std::move(probe), replies, [&](const Lines& l) {
        return l.size() >= jobs.size();
      })) {
    out.fail("quality probe: not every job answered");
  }

  const auto stats = ep->request("{\"id\":\"stats\",\"cmd\":\"stats\"}\n",
                                 [](const std::string& l) {
                                   return l.find("\"stats\"") !=
                                              std::string::npos &&
                                          (l.find("\"service\"") !=
                                               std::string::npos ||
                                           l.find("\"fleet\"") !=
                                               std::string::npos);
                                 });
  ep.reset();  // graceful shutdown and reap, outside every timed region

  // ---- correctness: every job answered exactly once, completed
  std::vector<Reply> got;
  auto seqs = parse_replies(replies, jobs, got, out);
  std::sort(seqs.begin(), seqs.end());
  if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end()) {
    out.fail("duplicate seq numbers");
  }

  // ---- in-process cross-checks and quality
  double quality_sum = 0.0;
  std::size_t originals = 0, repeats = 0, checked = 0;
  std::vector<double> latencies, traced_lat, untraced_lat, frontdoor, late;
  std::vector<double> queue_ms, setup_ms, solve_ms, total_ms, emit_ms;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++out.attempted;
    const Job& job = jobs[i];
    const Reply& r = got[i];
    const std::string id = job_id(i);
    const bool in_window = i < timed;
    if (!r.seen) {
      out.fail(id + ": no completed reply");
      continue;
    }
    if (job.twin >= 0) {
      ++repeats;
      const Reply& o = got[static_cast<std::size_t>(job.twin)];
      if (o.seen && (o.best_cost != r.best_cost || o.feasible != r.feasible ||
                     o.feasible_count != r.feasible_count ||
                     o.total_sweeps != r.total_sweeps)) {
        out.fail(id + ": repeat disagrees with its twin");
        continue;
      }
    } else if (!in_window || originals++ % kCrossCheckEvery == 0) {
      ++checked;
      if (!agrees_in_process(instances[job.instance], job, r)) {
        out.fail(id + ": served result differs from the in-process solve");
        continue;
      }
    }
    if (!in_window) {
      if (r.feasible) quality_sum += -r.best_cost / refs[job.instance].profit;
      continue;
    }
    latencies.push_back(r.latency_ms);
    late.push_back(job.late_ms);
    (job.traced ? traced_lat : untraced_lat).push_back(r.latency_ms);
    if (r.timing) {
      queue_ms.push_back(r.queue_ms);
      setup_ms.push_back(r.setup_ms);
      solve_ms.push_back(r.solve_ms);
      total_ms.push_back(r.total_ms);
      emit_ms.push_back(r.emit_ms);
      frontdoor.push_back(r.latency_ms - r.total_ms - r.emit_ms);
    }
  }
  out.note("timed_jobs", static_cast<double>(timed));
  out.note("repeats", static_cast<double>(repeats));
  out.note("cross_checked_in_process", static_cast<double>(checked));
  out.note("quality_probe_jobs", static_cast<double>(kQualityJobs));
  out.note("p99_ms", quantile(latencies, 0.99));
  out.note("p99_samples_beyond", samples_beyond(latencies.size(), 0.99));
  out.note("setup_samples_s", json_array(setups));

  if (!options.trace) {
    out.metric("setup_s", quantile(setups, 0.5), "s");
    out.metric("jobs_per_s",
               window_s > 0 ? static_cast<double>(latencies.size()) / window_s
                            : 0.0,
               "1/s");
    out.metric("p50_ms", quantile(latencies, 0.50), "ms");
    out.metric("p90_ms", quantile(latencies, 0.90), "ms");
    out.metric("quality_ratio",
               quality_sum / static_cast<double>(kQualityJobs), "ratio");
    out.metric("peak_rss_mb", peak_mb, "MiB");
    out.metric("completed_frac",
               1.0 - static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted),
               "ratio");
    return out;
  }

  // ---- per-layer, from the trace echo and the stats snapshot
  out.metric("service.queue_ms", mean_of(queue_ms), "ms");
  out.metric("service.setup_ms", mean_of(setup_ms), "ms");
  out.metric("service.solve_ms", mean_of(solve_ms), "ms");
  out.metric("service.total_ms", mean_of(total_ms), "ms");
  out.metric("session.emit_ms", mean_of(emit_ms), "ms");
  out.metric("net.frontdoor_ms", quantile(frontdoor, 0.50), "ms");
  out.metric("net.frontdoor_p99_ms", quantile(frontdoor, 0.99), "ms");
  out.metric("server.cpu_ms_per_job", cpu_per_job, "ms");
  out.metric("loadgen.late_p99_ms", quantile(late, 0.99), "ms");
  const double p50_traced = quantile(traced_lat, 0.5);
  const double p50_untraced = quantile(untraced_lat, 0.5);
  out.metric("trace.overhead_ms", p50_traced - p50_untraced, "ms");
  out.metric("trace.overhead_frac",
             p50_untraced > 0 ? (p50_traced - p50_untraced) / p50_untraced
                              : 0.0,
             "ratio");

  double hits = 0, misses = 0, coalesced = 0;
  auto add_service = [&](const saim::util::JsonValue* s) {
    if (!s || !s->is_object()) return;
    if (const auto* c = s->find("coalesced")) coalesced += c->as_double();
    if (const auto* cache = s->find("cache")) {
      if (const auto* h = cache->find("hits")) hits += h->as_double();
      if (const auto* m = cache->find("misses")) misses += m->as_double();
    }
  };
  if (!stats) {
    out.fail("no reply to the stats probe");
  } else {
    const auto v = saim::util::parse_json(stats->second);
    if (const auto* fleet_stats = v.find("fleet")) {
      double rtt_weighted = 0, count = 0;
      if (const auto* shards = fleet_stats->find("shards");
          shards && shards->is_array()) {
        for (const auto& shard : shards->array()) {
          add_service(shard.find("service"));
          if (const auto* lat = shard.find("latency")) {
            const double c =
                lat->find("count") ? lat->find("count")->as_double() : 0;
            const double p50 =
                lat->find("p50_ms") ? lat->find("p50_ms")->as_double() : 0;
            rtt_weighted += c * p50;
            count += c;
          }
        }
      }
      const double rtt = count > 0 ? rtt_weighted / count : 0.0;
      out.metric("router.rtt_ms", rtt, "ms");
      out.metric("router.self_ms", quantile(latencies, 0.5) - rtt, "ms");
    } else {
      add_service(v.find("service"));
    }
  }
  out.metric("service.cache_hit_frac",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  out.metric("service.coalesced", coalesced, "count");
  return out;
}

}  // namespace perfbench
