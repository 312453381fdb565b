// Benchmark load generator: one process, pinned to the CPUs it is given,
// running one epoll event loop per CPU and never more than --conns
// connections open at once.  Every connection is one client slot that runs
// client sessions back to back; each session binds its socket to its own
// 127.x.y.z source address, so the server sees distinct clients.
//
// A run has three phases on one shared clock:
//   warmup  closed loop, to let the young server's caches fill and its
//           memory grow before anything is timed; checked, not timed
//   open    open-loop Poisson arrivals at --rate, split evenly over the
//           slots; latency is measured from each request's intended send
//           time, so a stall is charged to every request queued behind it
//   closed  each slot sends its next request as soon as the previous one
//           completes; goodput and server CPU are measured here
//
// Every response is checked: benign requests must get their expected
// 200 (with the document's exact length) or 304, and attacks must get a
// 4xx, or no response for slow_headers, whose partial head the client
// sends and abandons.  The result is one JSON line on stdout.
//
//   perfbench_loadgen --workload <name> --seed <n> --port <p> --cpus 2,3
//       --conns 4 --rate <rps> --warmup <s> --open <s> --closed <s>
//       --windows <n> --server-pid <pid>
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "http/request.h"
#include "http/tenant_router.h"
#include "util/rng.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gaa::workload::RequestKind;
using SteadyClock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

constexpr std::int64_t kNsPerSec = 1'000'000'000;
constexpr std::int64_t kRequestTimeoutNs = 2 * kNsPerSec;
/// A failed request counts as slower than any latency limit.
constexpr double kFailedLatencyUs = 1e12;

// --- request generation -----------------------------------------------------

struct Request {
  std::string raw;
  RequestKind kind = RequestKind::kStaticPage;
  bool attack = false;
  bool partial = false;      // sent, then abandoned (slow_headers)
  int expect_status = 200;   // benign only: 200 or 304
  long expect_len = -1;      // -1: any non-empty body matching its length
  int doc = -1;              // session document slot, for ETag learning
  bool conditional = false;
};

/// Inverse-CDF sampler over ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(k + 1, s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(gaa::util::Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Document sizes, from the same site the server serves.
class SiteIndex {
 public:
  SiteIndex() : tree_(BuildSite()) {}
  long Length(const std::string& path) const {
    const gaa::http::Document* doc = tree_.FindDocument(path);
    return doc != nullptr ? static_cast<long>(doc->content.size()) : -1;
  }

 private:
  gaa::http::DocTree tree_;
};

// Session shapes.  Per-client request counts stay far below the streaming
// IDS client-rate threshold (300 per window) and every session's distinct
// paths below its fan-out threshold (40): benign traffic must never look
// like an attack.
constexpr int kStaticSessionLen = 32;
constexpr int kStaticSessionDocs = 4;
constexpr int kMixedSessionLen = 16;
constexpr int kAttackSessionLen = 4;
/// Chance a paper_mixed session is an attacker's: 4-request attacker
/// sessions against 16-request benign ones make ~10% of requests attacks.
constexpr double kAttackSessionShare = 0.3077;
constexpr int kTenantSessionLen = 24;

const RequestKind kMixedAttacks[] = {
    RequestKind::kCgiProbe,       RequestKind::kDosSlashes,
    RequestKind::kNimdaPercent,   RequestKind::kOverflowInput,
    RequestKind::kIllFormed,      RequestKind::kSlowHeaders,
    RequestKind::kSmugglingProbe, RequestKind::kPathTraversal,
    RequestKind::kHeaderFlood,    RequestKind::kCachePoison};

/// One client slot's endless, seeded stream of sessions.
class SessionSource {
 public:
  SessionSource(Workload workload, std::uint64_t seed, int slot, int slots,
                const SiteIndex* site)
      : workload_(workload),
        rng_(seed * 1000003 + static_cast<std::uint64_t>(slot)),
        slot_(slot),
        slots_(slots),
        site_(site),
        tenant_zipf_(kTenants, 1.1),
        doc_zipf_(static_cast<int>(BenignDocPaths().size()), 1.0) {
    gaa::workload::TraceOptions trace;
    trace.seed = seed * 7919 + static_cast<std::uint64_t>(slot);
    attacks_ = std::make_unique<gaa::workload::TraceGenerator>(trace);
  }

  /// The next request; `*new_client` is set when it starts a session, so
  /// the caller must open a connection from address().
  Request Next(bool* new_client) {
    *new_client = remaining_ == 0;
    if (remaining_ == 0) StartSession();
    --remaining_;
    switch (workload_) {
      case Workload::kStaticMemo:
        return StaticRequest();
      case Workload::kPaperMixed:
        return attacker_ ? AttackRequest() : MixedBenignRequest();
      case Workload::kTenantChurn:
        return TenantRequest();
    }
    return StaticRequest();
  }

  std::uint32_t address() const { return address_; }

  void LearnEtag(int doc, std::string etag) {
    if (doc >= 0 && doc < static_cast<int>(etags_.size())) {
      etags_[static_cast<std::size_t>(doc)] = std::move(etag);
    }
  }

 private:
  void StartSession() {
    const std::size_t ndocs = BenignDocPaths().size();
    etags_.clear();
    docs_.clear();
    attacker_ = false;
    switch (workload_) {
      case Workload::kStaticMemo:
        address_ = ClientAddress(kBenignBase, NextClientIndex());
        remaining_ = kStaticSessionLen;
        while (docs_.size() < kStaticSessionDocs) {
          const int doc = static_cast<int>(rng_.NextBelow(ndocs));
          if (std::find(docs_.begin(), docs_.end(), doc) == docs_.end()) {
            docs_.push_back(doc);
          }
        }
        break;
      case Workload::kPaperMixed:
        attacker_ = rng_.NextBool(kAttackSessionShare);
        address_ = attacker_
                       ? ClientAddress(kAttackerBase, NextClientIndex())
                       : ClientAddress(kBenignBase, NextClientIndex());
        remaining_ = attacker_ ? kAttackSessionLen : kMixedSessionLen;
        break;
      case Workload::kTenantChurn:
        address_ = ClientAddress(kBenignBase, NextClientIndex());
        tenant_ = tenant_zipf_.Sample(rng_);
        remaining_ = kTenantSessionLen;
        break;
    }
    etags_.resize(docs_.empty() ? ndocs : docs_.size());
  }

  /// Each slot walks its own residue class, so no two slots share a
  /// client address.
  std::uint64_t NextClientIndex() {
    return static_cast<std::uint64_t>(slot_) +
           static_cast<std::uint64_t>(slots_) * sessions_++;
  }

  Request Get(const std::string& path, const std::string& host, int doc) {
    Request req;
    req.kind = RequestKind::kStaticPage;
    req.doc = doc;
    req.raw = "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n";
    const std::string& etag = etags_[static_cast<std::size_t>(doc)];
    if (!etag.empty() && rng_.NextBool(0.5)) {
      req.raw += "If-None-Match: " + etag + "\r\n";
      req.conditional = true;
      req.expect_status = 304;
      req.expect_len = 0;
    } else {
      req.expect_len = site_->Length(path);
    }
    req.raw += "\r\n";
    return req;
  }

  Request StaticRequest() {
    const int slot = static_cast<int>(rng_.NextBelow(docs_.size()));
    return Get(BenignDocPaths()[static_cast<std::size_t>(
                   docs_[static_cast<std::size_t>(slot)])],
               "localhost", slot);
  }

  Request TenantRequest() {
    const int doc = doc_zipf_.Sample(rng_);
    return Get(BenignDocPaths()[static_cast<std::size_t>(doc)],
               HostFor(workload_, tenant_), doc);
  }

  Request MixedBenignRequest() {
    // E7's benign mix: 70% static pages, 20% search CGI, 10% private area.
    const double pick = rng_.NextDouble();
    if (pick < 0.7) {
      const std::size_t doc = rng_.NextBelow(BenignDocPaths().size());
      Request req;
      req.raw = gaa::http::BuildGetRequest(BenignDocPaths()[doc]);
      req.expect_len = site_->Length(BenignDocPaths()[doc]);
      return req;
    }
    Request req;
    req.kind = pick < 0.9 ? RequestKind::kSearchCgi
                          : RequestKind::kPrivatePage;
    req.raw = attacks_->Make(req.kind).raw;
    if (req.kind == RequestKind::kPrivatePage) {
      req.expect_len = site_->Length("/private/report.html");
    }
    return req;
  }

  Request AttackRequest() {
    Request req;
    req.kind = kMixedAttacks[rng_.NextBelow(std::size(kMixedAttacks))];
    req.attack = true;
    req.partial = gaa::workload::IsPartialRequestKind(req.kind);
    req.expect_status = 0;
    req.raw = attacks_->Make(req.kind).raw;
    return req;
  }

  Workload workload_;
  gaa::util::Rng rng_;
  int slot_;
  int slots_;
  const SiteIndex* site_;
  Zipf tenant_zipf_;
  Zipf doc_zipf_;
  std::unique_ptr<gaa::workload::TraceGenerator> attacks_;
  std::uint64_t sessions_ = 0;
  int remaining_ = 0;
  bool attacker_ = false;
  int tenant_ = 0;
  std::uint32_t address_ = 0;
  std::vector<int> docs_;
  std::vector<std::string> etags_;
};

// --- response framing ---------------------------------------------------------

bool HeaderNameIs(std::string_view line, std::string_view name) {
  if (line.size() <= name.size() || line[name.size()] != ':') return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view HeaderValue(std::string_view line, std::size_t name_len) {
  std::string_view v = line.substr(name_len + 1);
  while (!v.empty() && v.front() == ' ') v.remove_prefix(1);
  return v;
}

struct Response {
  int status = 0;
  long content_length = -1;
  long body_len = 0;
  bool close = false;
  std::string etag;
};

/// Parse one framed response from the front of `in`.  Returns the bytes it
/// spans, or 0 while incomplete.
std::size_t ParseResponse(const std::string& in, Response* out) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  *out = Response{};
  std::string_view head(in.data(), head_end);
  if (head.size() >= 12) out->status = std::atoi(in.c_str() + 9);
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    std::size_t next = head.find("\r\n", pos + 2);
    std::string_view line = head.substr(
        pos + 2, (next == std::string_view::npos ? head.size() : next) - pos - 2);
    if (HeaderNameIs(line, "Content-Length")) {
      out->content_length = std::atol(std::string(HeaderValue(line, 14)).c_str());
    } else if (HeaderNameIs(line, "Connection")) {
      out->close = HeaderValue(line, 10).find("close") != std::string_view::npos;
    } else if (HeaderNameIs(line, "ETag")) {
      out->etag = std::string(HeaderValue(line, 4));
    }
    pos = next;
  }
  const std::size_t body = std::max<long>(0, out->content_length);
  if (in.size() < head_end + 4 + body) return 0;
  out->body_len = static_cast<long>(body);
  return head_end + 4 + body;
}

// --- the client event loop -------------------------------------------------------

enum class Phase { kWarmup, kOpen, kClosed };

/// The open and closed phases are each cut into `windows` equal windows;
/// the run reports per-window figures so that their median can discount a
/// window hit by a stall of the host.
struct PhaseClock {
  std::int64_t start_ns = 0;
  std::int64_t open_ns = 0;    // warmup ends, open loop starts
  std::int64_t closed_ns = 0;  // open loop ends, closed loop starts
  std::int64_t end_ns = 0;
  int windows = 1;

  int Window(std::int64_t t, std::int64_t from, std::int64_t to) const {
    const std::int64_t w =
        (t - from) * windows / std::max<std::int64_t>(1, to - from);
    return static_cast<int>(std::clamp<std::int64_t>(w, 0, windows - 1));
  }
  /// Closed-phase window boundaries: windows + 1 instants.
  std::int64_t ClosedBoundary(int k) const {
    return closed_ns + (end_ns - closed_ns) * k / windows;
  }
};

struct ThreadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t attack_2xx = 0;
  std::uint64_t conditional = 0;
  std::uint64_t not_modified = 0;
  std::uint64_t closed_ok = 0;  // correct completions inside the closed phase
  std::vector<std::uint64_t> closed_ok_by_window;
  std::vector<std::vector<double>> open_latency_by_window;
  std::vector<double> open_service_us;
  std::vector<double> late_us;
  std::map<std::string, std::uint64_t> failures;  // reason -> count
  std::vector<std::string> sample_raw;  // reservoir of request bytes sent
};

/// Requests kept per thread for timing the parser on the workload's bytes.
constexpr std::size_t kParseSample = 2048;

std::atomic<int> g_open_fds{0};
std::atomic<int> g_max_open_fds{0};

struct ProcSample {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};

/// utime+stime of `pid` and the voluntary + nonvoluntary context
/// switches summed over its threads.
ProcSample SampleProc(int pid) {
  ProcSample sample;
  if (pid <= 0) return sample;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    // Fields after the command: state is field 3; utime/stime are 14/15.
    std::vector<std::string> parts;
    while (fields >> field) parts.push_back(field);
    if (parts.size() > 12) {
      const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
      sample.cpu_s =
          (std::stod(parts[11]) + std::stod(parts[12])) / ticks;
    }
  }
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* dir = opendir(task_dir.c_str())) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream status(task_dir + "/" + entry->d_name + "/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
            line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
          sample.ctx_switches +=
              std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
        }
      }
    }
    closedir(dir);
  }
  return sample;
}

struct Slot {
  explicit Slot(SessionSource source) : source(std::move(source)) {}
  SessionSource source;
  int fd = -1;
  bool connecting = false;
  bool out_watched = false;  // EPOLLOUT is in the fd's interest set
  bool busy = false;
  Request req;
  Phase phase = Phase::kWarmup;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t deadline_ns = 0;
  std::int64_t free_ns = 0;      // when the slot last became idle
  std::int64_t next_due_ns = 0;  // next open-loop arrival
  std::size_t out_off = 0;
  std::string in;
  gaa::util::Rng arrivals{0};
  bool done = false;
};

class ClientLoop {
 public:
  ClientLoop(std::vector<Slot>* slots, std::uint16_t port, double slot_rate,
             const PhaseClock& clock, int server_pid, bool sample_proc)
      : slots_(slots),
        port_(port),
        mean_gap_ns_(1e9 / slot_rate),
        clock_(clock),
        server_pid_(server_pid),
        sample_proc_(sample_proc) {}

  /// `proc` (loop 0 only) receives the server's CPU and context-switch
  /// counters at each closed-phase window boundary.
  void Run(ThreadResult* result, std::vector<ProcSample>* proc) {
    result_ = result;
    result_->closed_ok_by_window.assign(clock_.windows, 0);
    result_->open_latency_by_window.assign(clock_.windows, {});
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    for (Slot& slot : *slots_) {
      slot.next_due_ns = clock_.open_ns + NextGap(slot);
      slot.free_ns = clock_.open_ns;
    }
    const int windows = clock_.windows;
    int sampled = sample_proc_ ? 0 : windows + 1;
    epoll_event events[16];
    while (true) {
      std::int64_t now = NowNs();
      while (sampled <= windows && now >= clock_.ClosedBoundary(sampled)) {
        proc->push_back(SampleProc(server_pid_));
        ++sampled;
      }
      bool all_done = true;
      for (Slot& slot : *slots_) {
        if (!slot.busy && !slot.done) MaybeStart(slot, now);
        if (slot.busy && now >= slot.deadline_ns) Fail(slot, "timeout", now);
        if (!slot.done) all_done = false;
      }
      if (all_done && sampled > windows) break;
      // Busy-poll: the generator owns its CPUs, and a thread that sleeps
      // adds its own wake-up latency (large on a virtual machine) to every
      // round trip it measures.
      const int n = epoll_wait(epfd_, events, 16, 0);
      for (int i = 0; i < n; ++i) {
        Slot* slot = static_cast<Slot*>(events[i].data.ptr);
        OnEvent(*slot, events[i].events);
      }
    }
    for (Slot& slot : *slots_) CloseFd(slot);
    close(epfd_);
  }

 private:
  std::int64_t NextGap(Slot& slot) {
    double u = slot.arrivals.NextDouble();
    if (u < 1e-12) u = 1e-12;
    return static_cast<std::int64_t>(-std::log(u) * mean_gap_ns_);
  }

  void MaybeStart(Slot& slot, std::int64_t now) {
    if (now >= clock_.end_ns) {
      slot.done = true;
      CloseFd(slot);
      return;
    }
    if (now < clock_.open_ns) {
      slot.due_ns = now;
      slot.phase = Phase::kWarmup;
    } else if (slot.next_due_ns < clock_.closed_ns) {
      // Open loop, including any backlog still queued at the phase end.
      if (slot.next_due_ns > now) return;
      slot.due_ns = slot.next_due_ns;
      slot.phase = Phase::kOpen;
      slot.next_due_ns += NextGap(slot);
      // Generator lateness: the send's delay past the later of its due
      // time and the moment the slot was free to send it.
      result_->late_us.push_back(
          static_cast<double>(now - std::max(slot.due_ns,
                                             std::max(slot.free_ns,
                                                      clock_.open_ns))) /
          1000.0);
    } else if (now < clock_.closed_ns) {
      return;
    } else {
      slot.due_ns = now;
      slot.phase = Phase::kClosed;
    }
    bool new_client = false;
    slot.req = slot.source.Next(&new_client);
    if (new_client) CloseFd(slot);
    slot.busy = true;
    slot.send_ns = now;
    slot.deadline_ns = now + kRequestTimeoutNs;
    slot.out_off = 0;
    slot.in.clear();
    ++result_->attempted;
    if (slot.req.conditional) ++result_->conditional;
    if (result_->sample_raw.size() < kParseSample) {
      result_->sample_raw.push_back(slot.req.raw);
    } else {
      const std::uint64_t k = reservoir_.NextBelow(result_->attempted);
      if (k < kParseSample) result_->sample_raw[k] = slot.req.raw;
    }
    if (slot.fd < 0 && !Connect(slot)) {
      Fail(slot, "connect", now);
      return;
    }
    if (!slot.connecting) Send(slot);
  }

  bool Connect(Slot& slot) {
    slot.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (slot.fd < 0) return false;
    const int open = g_open_fds.fetch_add(1) + 1;
    int seen = g_max_open_fds.load();
    while (open > seen && !g_max_open_fds.compare_exchange_weak(seen, open)) {
    }
    int one = 1;
    setsockopt(slot.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr = htonl(slot.source.address());
    if (bind(slot.fd, reinterpret_cast<sockaddr*>(&local), sizeof(local)) != 0) {
      return false;
    }
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_port = htons(port_);
    server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        connect(slot.fd, reinterpret_cast<sockaddr*>(&server), sizeof(server));
    if (rc != 0 && errno != EINPROGRESS) return false;
    slot.connecting = rc != 0;
    slot.out_watched = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
    ev.data.ptr = &slot;
    return epoll_ctl(epfd_, EPOLL_CTL_ADD, slot.fd, &ev) == 0;
  }

  /// Level-triggered interest: writable only while bytes remain to send.
  void WatchWritable(Slot& slot, bool writable) {
    if (slot.out_watched == writable) return;
    slot.out_watched = writable;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (writable ? EPOLLOUT : 0u);
    ev.data.ptr = &slot;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, slot.fd, &ev);
  }

  void CloseFd(Slot& slot) {
    if (slot.fd < 0) return;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, slot.fd, nullptr);
    close(slot.fd);
    slot.fd = -1;
    slot.connecting = false;
    g_open_fds.fetch_sub(1);
  }

  void Send(Slot& slot) {
    const std::string& raw = slot.req.raw;
    while (slot.out_off < raw.size()) {
      const ssize_t n = send(slot.fd, raw.data() + slot.out_off,
                             raw.size() - slot.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        slot.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        WatchWritable(slot, true);
        return;
      }
      Fail(slot, "send", NowNs());
      return;
    }
    WatchWritable(slot, false);
    if (slot.req.partial) {
      // slow_headers: abandon the unfinished head; no answer is expected.
      CloseFd(slot);
      Complete(slot, NowNs(), nullptr);
    }
  }

  void OnEvent(Slot& slot, std::uint32_t events) {
    if (!slot.busy) {
      // An idle keep-alive connection the server closed (or wrote to
      // unasked): drop it, the slot reconnects for its next request.
      CloseFd(slot);
      return;
    }
    if (slot.connecting) {
      if (!(events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) return;
      int err = 0;
      socklen_t len = sizeof(err);
      getsockopt(slot.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        Fail(slot, "connect", NowNs());
        return;
      }
      slot.connecting = false;
    }
    if (slot.out_off < slot.req.raw.size()) {
      Send(slot);
      if (!slot.busy || slot.out_off < slot.req.raw.size()) return;
    }
    if (!(events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))) return;
    char buf[16384];
    while (true) {
      const ssize_t n = recv(slot.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        slot.in.append(buf, static_cast<std::size_t>(n));
        Response response;
        const std::size_t used = ParseResponse(slot.in, &response);
        if (used > 0) {
          const std::int64_t now = NowNs();
          if (response.close || used != slot.in.size()) CloseFd(slot);
          Complete(slot, now, &response);
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      Fail(slot, n == 0 ? "closed_without_response" : "recv", NowNs());
      return;
    }
  }

  void Fail(Slot& slot, const char* reason, std::int64_t now) {
    CloseFd(slot);
    ++result_->failed;
    ++result_->failures[std::string(reason) + ":" +
                        gaa::workload::RequestKindName(slot.req.kind)];
    Record(slot, now, /*ok=*/false);
  }

  void Complete(Slot& slot, std::int64_t now, const Response* response) {
    bool ok = false;
    const char* reason = "wrong_status";
    if (slot.req.attack) {
      if (response == nullptr) {
        ok = slot.req.partial;
      } else if (response->status >= 200 && response->status < 300) {
        ++result_->attack_2xx;
        reason = "attack_answered_2xx";
      } else {
        ok = response->status >= 400 && response->status < 500;
      }
    } else if (response != nullptr &&
               response->status == slot.req.expect_status) {
      ok = slot.req.expect_len >= 0 ? response->body_len == slot.req.expect_len
                                    : response->body_len > 0;
      reason = "wrong_length";
      if (response->status == 304) ++result_->not_modified;
      if (response->status == 200 && !response->etag.empty()) {
        slot.source.LearnEtag(slot.req.doc, response->etag);
      }
    }
    if (!ok) {
      ++result_->failed;
      ++result_->failures[std::string(reason) + ":" +
                          gaa::workload::RequestKindName(slot.req.kind)];
    }
    Record(slot, now, ok);
  }

  void Record(Slot& slot, std::int64_t now, bool ok) {
    slot.busy = false;
    slot.free_ns = now;
    if (slot.phase == Phase::kOpen) {
      const double latency_us =
          ok ? static_cast<double>(now - slot.due_ns) / 1000.0
             : kFailedLatencyUs;
      result_->open_latency_by_window[static_cast<std::size_t>(
          clock_.Window(slot.due_ns, clock_.open_ns, clock_.closed_ns))]
          .push_back(latency_us);
      if (ok && !slot.req.partial) {
        result_->open_service_us.push_back(
            static_cast<double>(now - slot.send_ns) / 1000.0);
      }
    } else if (slot.phase == Phase::kClosed && ok && now <= clock_.end_ns) {
      ++result_->closed_ok;
      ++result_->closed_ok_by_window[static_cast<std::size_t>(
          clock_.Window(now, clock_.closed_ns, clock_.end_ns))];
    }
  }

  std::vector<Slot>* slots_;
  std::uint16_t port_;
  double mean_gap_ns_;
  PhaseClock clock_;
  int server_pid_;
  bool sample_proc_;
  ThreadResult* result_ = nullptr;
  gaa::util::Rng reservoir_{42};
  int epfd_ = -1;
};

// --- micro-timings on the workload's own inputs --------------------------------

/// Keeps the timed calls' results observable so they are not optimized out.
volatile std::size_t g_sink = 0;

/// Median per-call cost of `fn(i)` over `n` inputs, timed in batches of
/// `n` calls so the clock read does not dominate a sub-microsecond call.
template <typename Fn>
double MedianBatchCallUs(std::size_t n, Fn fn) {
  std::vector<double> per_call;
  for (int round = 0; round < 101; ++round) {
    const auto start = SteadyClock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per_call.push_back(
        std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
            .count() /
        static_cast<double>(n));
  }
  std::nth_element(per_call.begin(), per_call.begin() + 50, per_call.end());
  return per_call[50];
}

/// Median cost of http::ParseRequest over a sample of the bytes sent.
double TimeParseUs(const std::vector<std::string>& sample) {
  if (sample.empty()) return 0;
  std::size_t sink = 0;
  const double us = MedianBatchCallUs(sample.size(), [&](std::size_t i) {
    sink += gaa::http::ParseRequest(sample[i]).ok() ? 1 : 0;
  });
  g_sink = sink;
  return us;
}

/// Median cost of one TenantRouter::Resolve (with host normalization) over
/// the Host values this workload sends, on a router configured like the
/// server's.
double TimeResolveUs(Workload workload, std::uint64_t seed) {
  gaa::http::TenantRouter router;
  if (workload == Workload::kTenantChurn) {
    for (int t = 0; t < kTenants; ++t) router.AddHost(TenantHost(t), TenantName(t));
  }
  gaa::util::Rng rng(seed);
  Zipf zipf(kTenants, 1.1);
  std::vector<std::string> hosts;
  for (int i = 0; i < 1024; ++i) hosts.push_back(HostFor(workload, zipf.Sample(rng)));
  std::size_t sink = 0;
  const double us = MedianBatchCallUs(hosts.size(), [&](std::size_t i) {
    char buf[256];
    sink += router
                .Resolve(gaa::http::NormalizeHostInto(hosts[i], buf, sizeof(buf)))
                .tenant.size();
  });
  g_sink = sink;
  return us;
}

// --- main ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kStaticMemo;
  std::uint64_t seed = 1;
  std::uint16_t port = 0;
  std::vector<int> cpus;
  int conns = 4;
  double rate = 1000;
  double warmup_s = 0.5;
  double open_s = 5;
  double closed_s = 5;
  int server_pid = 0;
  int windows = 1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &args->workload);
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--port") {
      args->port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (key == "--cpus") {
      std::stringstream list(value);
      std::string item;
      while (std::getline(list, item, ',')) args->cpus.push_back(std::atoi(item.c_str()));
    } else if (key == "--conns") {
      args->conns = std::atoi(value);
    } else if (key == "--rate") {
      args->rate = std::atof(value);
    } else if (key == "--warmup") {
      args->warmup_s = std::atof(value);
    } else if (key == "--open") {
      args->open_s = std::atof(value);
    } else if (key == "--closed") {
      args->closed_s = std::atof(value);
    } else if (key == "--windows") {
      args->windows = std::atoi(value);
    } else if (key == "--server-pid") {
      args->server_pid = std::atoi(value);
    } else {
      return false;
    }
  }
  return have_workload && args->port != 0 && !args->cpus.empty() &&
         args->conns >= 1 && args->rate > 0 && args->windows >= 1;
}

int Run(const Args& args) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : args.cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "loadgen: sched_setaffinity failed\n");
    return 1;
  }
  const int nthreads =
      std::max(1, std::min(static_cast<int>(args.cpus.size()), args.conns));

  const SiteIndex site;
  std::vector<std::vector<Slot>> slots(static_cast<std::size_t>(nthreads));
  for (int s = 0; s < args.conns; ++s) {
    Slot slot(SessionSource(args.workload, args.seed, s, args.conns, &site));
    slot.arrivals = gaa::util::Rng(args.seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    slots[static_cast<std::size_t>(s % nthreads)].push_back(std::move(slot));
  }

  PhaseClock clock;
  clock.start_ns = NowNs() + 20'000'000;
  clock.open_ns = clock.start_ns + static_cast<std::int64_t>(args.warmup_s * 1e9);
  clock.closed_ns = clock.open_ns + static_cast<std::int64_t>(args.open_s * 1e9);
  clock.end_ns = clock.closed_ns + static_cast<std::int64_t>(args.closed_s * 1e9);
  clock.windows = args.windows;

  const double slot_rate = args.rate / args.conns;
  std::vector<ThreadResult> results(static_cast<std::size_t>(nthreads));
  std::vector<ProcSample> proc;
  std::vector<std::thread> threads;
  for (int t = 1; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      ClientLoop loop(&slots[static_cast<std::size_t>(t)], args.port, slot_rate,
                      clock, args.server_pid, false);
      loop.Run(&results[static_cast<std::size_t>(t)], nullptr);
    });
  }
  // The calling thread is loop 0, so the process runs exactly nthreads
  // threads while load is offered.
  {
    ClientLoop loop(&slots[0], args.port, slot_rate, clock, args.server_pid,
                    true);
    loop.Run(&results[0], &proc);
  }
  for (std::thread& thread : threads) thread.join();

  ThreadResult total;
  total.closed_ok_by_window.assign(args.windows, 0);
  total.open_latency_by_window.assign(args.windows, {});
  for (ThreadResult& r : results) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.attack_2xx += r.attack_2xx;
    total.conditional += r.conditional;
    total.not_modified += r.not_modified;
    total.closed_ok += r.closed_ok;
    for (int w = 0; w < args.windows; ++w) {
      total.closed_ok_by_window[w] += r.closed_ok_by_window[w];
      total.open_latency_by_window[w].insert(
          total.open_latency_by_window[w].end(),
          r.open_latency_by_window[w].begin(), r.open_latency_by_window[w].end());
    }
    total.open_service_us.insert(total.open_service_us.end(),
                                 r.open_service_us.begin(), r.open_service_us.end());
    total.late_us.insert(total.late_us.end(), r.late_us.begin(), r.late_us.end());
    for (const auto& [reason, count] : r.failures) total.failures[reason] += count;
    total.sample_raw.insert(total.sample_raw.end(), r.sample_raw.begin(),
                            r.sample_raw.end());
  }

  const double window_s = args.closed_s / args.windows;
  std::vector<double> goodput_w, cpu_w, ctx_w, p50_w, p90_w, p99_w;
  for (int w = 0; w < args.windows; ++w) {
    const double ok = static_cast<double>(total.closed_ok_by_window[w]);
    goodput_w.push_back(ok / window_s);
    if (proc.size() == static_cast<std::size_t>(args.windows) + 1) {
      cpu_w.push_back((proc[w + 1].cpu_s - proc[w].cpu_s) * 1e6 /
                      std::max(1.0, ok));
      ctx_w.push_back(static_cast<double>(proc[w + 1].ctx_switches -
                                          proc[w].ctx_switches) /
                      std::max(1.0, ok));
    }
    p50_w.push_back(Percentile(total.open_latency_by_window[w], 0.5));
    p90_w.push_back(Percentile(total.open_latency_by_window[w], 0.9));
    p99_w.push_back(Percentile(total.open_latency_by_window[w], 0.99));
  }
  auto array = [](const std::vector<double>& values) {
    std::string out = "[";
    char buf[40];
    for (double v : values) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", out.size() > 1 ? "," : "", v);
      out += buf;
    }
    return out + "]";
  };
  std::string failures = "{";
  for (const auto& [reason, count] : total.failures) {
    if (failures.size() > 1) failures += ",";
    failures += "\"" + reason + "\":" + std::to_string(count);
  }
  failures += "}";
  std::printf(
      "{\"attempted\":%llu,\"failed\":%llu,\"attack_2xx\":%llu,"
      "\"service_p50_us\":%.17g,\"late_p50_us\":%.17g,\"late_p99_us\":%.17g,"
      "\"closed_ok\":%llu,\"conditional\":%llu,\"not_modified\":%llu,"
      "\"parse_us\":%.17g,\"resolve_us\":%.17g,\"threads\":%d,"
      "\"max_open_conns\":%d,\"failures\":%s,\"windows\":{"
      "\"goodput_rps\":%s,\"cpu_us_per_req\":%s,\"ctx_per_req\":%s,"
      "\"p50_us\":%s,\"p90_us\":%s,\"p99_us\":%s}}\n",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed),
      static_cast<unsigned long long>(total.attack_2xx),
      Percentile(total.open_service_us, 0.5), Percentile(total.late_us, 0.5),
      Percentile(total.late_us, 0.99),
      static_cast<unsigned long long>(total.closed_ok),
      static_cast<unsigned long long>(total.conditional),
      static_cast<unsigned long long>(total.not_modified),
      TimeParseUs(total.sample_raw), TimeResolveUs(args.workload, args.seed),
      nthreads, g_max_open_fds.load(), failures.c_str(),
      array(goodput_w).c_str(), array(cpu_w).c_str(), array(ctx_w).c_str(),
      array(p50_w).c_str(), array(p90_w).c_str(), array(p99_w).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload <name> --seed <n> "
                 "--port <p> --cpus <list> --conns <n> --rate <rps> "
                 "[--warmup s] [--open s] [--closed s] [--windows n] "
                 "[--server-pid pid]\n");
    return 2;
  }
  return perfbench::Run(args);
}
