#include "coord_fleet.h"

#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "fleet_accounting.h"
#include "host.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "runtime/coordinator.h"
#include "runtime/schedule_state.h"
#include "sched/dclas.h"
#include "span_trace.h"
#include "util/units.h"
#include "workload/facebook.h"

namespace perfbench {

namespace net = aalo::net;
using aalo::coflow::CoflowId;

namespace {

// Fleet shape: fig14's 1000 logical daemons multiplexed on three
// connections, each reporting every Δ at its own phase (daemon d reports
// at (k + d / kDaemons)·Δ).
constexpr std::size_t kDaemons = 1000;
constexpr std::size_t kDaemonConns = 3;
constexpr double kDelta = 0.010;
// Coflow churn on the fourth connection comes from the fb-shaped trace
// generator (workload::generateFacebookWorkload) with one port per daemon:
// a coflow's senders are the daemons that report it, and each sends its
// flows' bytes at line rate, shared equally by the coflows it is sending
// for. A coflow is unregistered once its last sender is done. Arrivals
// keep the trace's Poisson order, with times scaled so that by Little's
// law on the trace's own isolated lengths kLiveCoflows coflows are live —
// fig14's and the paper's population. Contention at shared senders
// stretches lifetimes, so somewhat more are live in practice; the run
// prints the average. The first kLiveCoflows are registered in set-up.
constexpr std::size_t kLiveCoflows = 100;
constexpr aalo::util::Rate kLineRate = aalo::util::kGbps;
// Trace coflows generated per second of window: the scaled arrival rate
// is about 60/s (mean isolated length about 1.7 s).
constexpr double kTraceCoflowsPerSecond = 100;
// A crossing that has not reached every connection within the
// coordinator's liveness horizon (10Δ) counts as lost. Staleness is
// normally under Δ + fan-out; host CPU preemption alone has stalled the
// generator for up to ~55 ms on a 4-vCPU VM, so a tighter limit would flag
// host noise. Lateness short of loss shows in delay_tail_ms.
constexpr double kStalenessLimit = 10 * kDelta;
constexpr int kSetups = 3;
constexpr double kSetupTimeout = 10;
// After the window: time for in-flight reports, broadcasts and replies to
// land — well inside the coordinator's 10Δ liveness timeout.
constexpr double kDrain = 4 * kDelta;
constexpr std::size_t kOutboxLimit = 64u << 20;
// Traced runs: what is kept in memory for the per-layer replays.
constexpr std::size_t kMaxRecordedEvents = 1'000'000;
constexpr std::size_t kMaxRecordedFrames = 50'000;
constexpr std::size_t kMaxSpans = 100'000;
// Traced runs alternate untraced and traced slices of this length.
constexpr double kSlice = 0.5;

/// Loadgen lag buckets: 10 µs growing by 10% per bucket, up to ~140 ms.
constexpr aalo::obs::HistogramOptions kLagBuckets{10e-6, 1.1, 100};

/// One trace coflow as the fleet drives it.
struct ChurnCoflow {
  double arrival_s = 0;
  /// (daemon, bytes it sends), one per sender port.
  std::vector<std::pair<std::uint32_t, double>> senders;
};

/// The seed's churn: enough trace coflows for `seconds` of window after
/// the initial population, in arrival order, times scaled as described
/// at kLiveCoflows.
std::vector<ChurnCoflow> churnFromTrace(std::uint64_t seed, double seconds) {
  aalo::workload::FacebookConfig config;
  config.num_ports = static_cast<int>(kDaemons);
  config.num_jobs =
      kLiveCoflows + static_cast<std::size_t>(std::ceil(seconds * kTraceCoflowsPerSecond));
  config.seed = seed;
  const aalo::coflow::Workload trace = aalo::workload::generateFacebookWorkload(config);
  std::vector<ChurnCoflow> churn;
  double total_length_s = 0;
  for (const auto& job : trace.jobs) {
    for (const auto& spec : job.coflows) {
      std::map<aalo::coflow::PortId, double> sent;
      for (const auto& flow : spec.flows) sent[flow.src] += flow.bytes;
      ChurnCoflow coflow{job.arrival + spec.arrival_offset, {}};
      double longest = 0;
      for (const auto& [port, bytes] : sent) {
        // Whole bytes (see sendReport).
        coflow.senders.emplace_back(static_cast<std::uint32_t>(port), std::round(bytes));
        longest = std::max(longest, bytes);
      }
      total_length_s += longest / kLineRate;
      churn.push_back(std::move(coflow));
    }
  }
  std::stable_sort(churn.begin(), churn.end(), [](const ChurnCoflow& a, const ChurnCoflow& b) {
    return a.arrival_s < b.arrival_s;
  });
  const double mean_length_s = total_length_s / static_cast<double>(churn.size());
  const double scale =
      mean_length_s / static_cast<double>(kLiveCoflows) / config.mean_interarrival;
  for (ChurnCoflow& coflow : churn) coflow.arrival_s *= scale;
  return churn;
}

/// The register/report/unregister stream as the standalone ScheduleState
/// sees it, recorded in traced runs for the runtime.* replays.
struct StreamEvent {
  enum class Kind : std::uint8_t { kRegister, kSize, kUnregister, kEpoch } kind;
  std::uint64_t daemon = 0;
  CoflowId id;
  double bytes = 0;
};

/// Counters sampled at the edges of a measured interval.
struct Snapshot {
  double wall_s = 0;
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
  std::uint64_t reports = 0;
  double bytes_up = 0;
  double bytes_down = 0;
  std::uint64_t epochs = 0;
};

struct CoordCounters {
  double frames_in = 0, frames_out = 0, bytes_in = 0, bytes_out = 0;
  double delta = 0, suppressed = 0, snapshots = 0;
};

/// Reads `field` of metric `family` from Registry::renderJson() output;
/// throws if the coordinator no longer exports it, so a renamed metric
/// fails the run instead of reading 0.
double registryField(const std::string& json, const std::string& family,
                     const std::string& field) {
  const auto at = json.find("\"name\": \"" + family + "\"");
  const auto end = at == std::string::npos ? at : json.find('}', at);
  const auto f = at == std::string::npos ? at : json.find("\"" + field + "\": ", at);
  if (f == std::string::npos || f > end) {
    throw std::runtime_error("coordinator metric " + family + " has no field " + field);
  }
  return std::strtod(json.c_str() + f + field.size() + 4, nullptr);
}

class Fleet {
 public:
  Fleet(const std::vector<ChurnCoflow>& churn, SpanTrace* spans)
      : spans_(spans),
        churn_(churn),
        thresholds_(aalo::sched::DClasConfig{}.thresholds()),
        accounting_(kDaemonConns, kStalenessLimit),
        standalone_(thresholds_, 0),
        daemon_coflows_(kDaemons),
        lag_(kLagBuckets) {}
  ~Fleet() { shutdown(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Starts the coordinator, connects, says Hello on the daemon
  /// connections and registers the initial population; returns when
  /// every registration is answered and an epoch has reached every
  /// daemon connection. Reports flow from the first Hello on.
  double setup();
  /// Drives the fleet until `until_s` (nowSeconds() clock).
  void drive(double until_s);
  /// Opens the open-loop registration stream: the first trace coflow
  /// after the initial population is due at `start_s`.
  void openRegistrations(double start_s) {
    churn_origin_s_ = start_s - churn_[std::min(kLiveCoflows, churn_.size() - 1)].arrival_s;
  }
  /// Stops all sending and lets in-flight traffic land.
  void drain();
  /// Closes the connections and stops the coordinator.
  void shutdown() {
    closing_ = true;
    conns_.clear();
    if (coordinator_) coordinator_->stop();
  }

  Snapshot snapshot() const {
    return Snapshot{nowSeconds(), processCpuSeconds(), threadCpuSeconds(),
                    reports_,     bytes_up_,           bytes_down_,
                    max_epoch_};
  }
  CoordCounters coordCounters() const;
  /// Recording buffers are reserved up front: growing them inside the
  /// window would stall the generator.
  void setRecording(bool on) {
    recording_ = on;
    if (on) {
      stream_.reserve(kMaxRecordedEvents);
      frames_.reserve(kMaxRecordedFrames);
    }
  }

  aalo::runtime::Coordinator& coordinator() { return *coordinator_; }
  const FleetAccounting& accounting() const { return accounting_; }
  const aalo::obs::LatencyHistogram& lag() const { return lag_; }
  const std::vector<StreamEvent>& stream() const { return stream_; }
  const std::vector<std::vector<std::uint8_t>>& frames() const { return frames_; }
  /// Traced runs: first and last delivery of each recorded epoch.
  const std::unordered_map<std::uint64_t, std::pair<double, double>>& epochTimes() const {
    return epoch_times_;
  }
  std::size_t unexpectedCloses() const { return unexpected_closes_; }
  /// Whether registrations ran out of trace coflows before the window end.
  bool churnExhausted() const { return next_churn_ == churn_.size(); }
  /// Live coflows, sampled at every report round.
  double meanLiveCoflows() const {
    return live_samples_ == 0 ? 0 : live_sum_ / static_cast<double>(live_samples_);
  }
  bool outboxOverflowed() const { return outbox_overflow_; }
  bool snapshotMatches(std::string& why);

 private:
  struct LiveCoflow {
    CoflowId id;
    std::size_t senders_left = 0;
    std::array<double, kDaemonConns> conn_bytes{};
    double global = 0;
    int queue = 0;
  };
  /// A coflow a daemon is sending for, and the bytes it has left to send.
  struct Sending {
    std::uint32_t slot = 0;
    double remaining = 0;
  };

  void connect();
  /// Registers trace coflow `index`, due at `due_s`.
  void sendRegister(std::size_t index, double due_s);
  void sendReport(std::size_t daemon, double due_s, double now_s);
  void endCoflow(std::uint32_t slot);
  void onDaemonFrame(std::size_t conn, net::Buffer& payload);
  void onClientFrame(net::Buffer& payload);
  void appendFrame(std::size_t conn, const net::Message& message);
  void flushOutboxes();
  void iterate(double now_s);
  double nextReportDue() const {
    return report_origin_s_ +
           (static_cast<double>(report_round_) +
            static_cast<double>(report_cursor_) / static_cast<double>(kDaemons)) *
               kDelta;
  }
  void record(StreamEvent event) {
    if (recording_ && stream_.size() < kMaxRecordedEvents) stream_.push_back(event);
  }
  void recordFrame(std::span<const std::uint8_t> payload) {
    if (recording_ && frames_.size() < kMaxRecordedFrames) {
      frames_.emplace_back(payload.begin(), payload.end());
    }
  }

  SpanTrace* spans_;
  const std::vector<ChurnCoflow>& churn_;
  std::vector<aalo::util::Bytes> thresholds_;
  FleetAccounting accounting_;
  aalo::runtime::ScheduleState standalone_;

  std::unique_ptr<aalo::runtime::Coordinator> coordinator_;
  net::EventLoop loop_;
  /// conns_[0..2] carry daemon traffic, conns_[3] registrations.
  std::vector<std::unique_ptr<net::Connection>> conns_;
  std::array<net::Buffer, kDaemonConns + 1> outbox_;
  net::Buffer scratch_;
  net::Message report_;
  bool sending_ = true;
  bool closing_ = false;
  bool outbox_overflow_ = false;
  std::size_t unexpected_closes_ = 0;

  // Coflows: slots with a free list; each daemon lists the coflows it is
  // sending for; finished coflows wait for their unregistration.
  std::vector<LiveCoflow> coflows_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<Sending>> daemon_coflows_;
  std::vector<std::uint32_t> finished_;
  /// Request id to trace coflow index.
  std::unordered_map<std::uint64_t, std::size_t> pending_registers_;
  std::uint64_t next_request_id_ = 1;
  std::size_t next_churn_ = 0;
  double churn_origin_s_ = INFINITY;
  std::size_t live_ = 0;
  double live_sum_ = 0;
  std::uint64_t live_samples_ = 0;

  double report_origin_s_ = 0;
  std::uint64_t report_round_ = 0;
  std::size_t report_cursor_ = 0;
  std::array<std::uint64_t, kDaemonConns> conn_epoch_{};
  std::vector<std::pair<CoflowId, int>> new_crossings_;

  std::uint64_t reports_ = 0;
  double bytes_up_ = 0;
  double bytes_down_ = 0;
  std::uint64_t max_epoch_ = 0;
  aalo::obs::LatencyHistogram lag_;

  bool recording_ = false;
  std::vector<StreamEvent> stream_;
  std::vector<std::vector<std::uint8_t>> frames_;
  std::unordered_map<std::uint64_t, std::pair<double, double>> epoch_times_;
};

/// Daemon id the coordinator files connection `c`'s reports under: it
/// keys reports by the connection's Hello, not by the id in each report.
std::uint64_t connDaemonId(std::size_t c) { return 1'000'000 + c; }

void Fleet::connect() {
  for (std::size_t c = 0; c <= kDaemonConns; ++c) {
    net::Fd fd = net::connectTcp(coordinator_->port());
    net::Connection::FrameHandler on_frame;
    if (c < kDaemonConns) {
      on_frame = [this, c](net::Buffer& payload) { onDaemonFrame(c, payload); };
    } else {
      on_frame = [this](net::Buffer& payload) { onClientFrame(payload); };
    }
    conns_.push_back(std::make_unique<net::Connection>(
        loop_, std::move(fd), std::move(on_frame), [this] {
          if (!closing_) ++unexpected_closes_;
        }));
  }
  for (std::size_t c = 0; c < kDaemonConns; ++c) {
    net::Message hello;
    hello.type = net::MessageType::kHello;
    hello.daemon_id = connDaemonId(c);
    appendFrame(c, hello);
  }
}

double Fleet::setup() {
  const double start = nowSeconds();
  {
    ScopedSpan span(spans_, "runtime.coordinator_start");
    aalo::runtime::CoordinatorConfig config;  // Default path: delta coding, 1 shard.
    config.sync_interval = kDelta;
    coordinator_ = std::make_unique<aalo::runtime::Coordinator>(config);
    coordinator_->start();
  }
  {
    ScopedSpan span(spans_, "net.connect");
    connect();
  }
  ScopedSpan span(spans_, "runtime.seed_population");
  report_origin_s_ = nowSeconds();
  while (next_churn_ < std::min(kLiveCoflows, churn_.size())) {
    sendRegister(next_churn_, report_origin_s_);
  }
  const std::uint64_t hello_epoch = max_epoch_;
  while (true) {
    const double now = nowSeconds();
    if (now - start > kSetupTimeout) throw std::runtime_error("coord_fleet: set-up timed out");
    iterate(now);
    if (pending_registers_.empty() && coordinator_->daemonCount() == kDaemonConns &&
        max_epoch_ > hello_epoch + 1 && accounting_.incompleteEpochs(max_epoch_, max_epoch_) == 0) {
      break;
    }
  }
  return nowSeconds() - start;
}

void Fleet::drive(double until_s) {
  for (double now = nowSeconds(); now < until_s; now = nowSeconds()) iterate(now);
}

void Fleet::drain() {
  sending_ = false;
  const double until = nowSeconds() + kDrain;
  for (double now = nowSeconds(); now < until; now = nowSeconds()) iterate(now);
}

void Fleet::iterate(double now_s) {
  if (sending_) {
    while (next_churn_ < churn_.size()) {
      const double due = churn_origin_s_ + churn_[next_churn_].arrival_s;
      if (due > now_s) break;
      sendRegister(next_churn_, due);
    }
    for (double due = nextReportDue(); due <= now_s; due = nextReportDue()) {
      sendReport(report_cursor_, due, now_s);
      if (++report_cursor_ == kDaemons) {
        report_cursor_ = 0;
        ++report_round_;
        live_sum_ += static_cast<double>(live_);
        ++live_samples_;
      }
    }
  }
  flushOutboxes();
  if (!new_crossings_.empty()) {
    // Staleness counts from when the crossing report left the generator.
    const double sent = nowSeconds();
    for (const auto& [id, queue] : new_crossings_) accounting_.crossing(id, queue, sent);
    new_crossings_.clear();
  }
  // After the crossings, so the finishing reports' crossings are
  // cancelled along with the coflow; the frames go out next iteration.
  for (const std::uint32_t slot : finished_) endCoflow(slot);
  finished_.clear();
  // Sleep at most 1 ms; any incoming frame wakes the loop at once.
  loop_.runOnce(std::chrono::milliseconds(1));
}

void Fleet::sendRegister(std::size_t index, double due_s) {
  const std::uint64_t request_id = next_request_id_++;
  pending_registers_.emplace(request_id, index);
  ++next_churn_;

  net::Message message;
  message.type = net::MessageType::kRegisterCoflow;
  message.request_id = request_id;
  appendFrame(kDaemonConns, message);
  accounting_.rpcSent(request_id, due_s);
}

void Fleet::sendReport(std::size_t daemon, double due_s, double now_s) {
  const std::size_t c = daemon % kDaemonConns;
  report_.type = net::MessageType::kSizeReport;
  report_.daemon_id = daemon;
  report_.epoch = conn_epoch_[c];  // Echo, as a live daemon does.
  report_.sizes.clear();
  // Reports carry the connection's absolute total per coflow (see
  // connDaemonId): each logical daemon adds what it sent this Δ first,
  // its line rate split equally among the coflows it is sending for.
  // Whole bytes keep every sum exact, so the coordinator and the
  // standalone state agree bit for bit whatever order they add in.
  std::vector<Sending>& sending = daemon_coflows_[daemon];
  const double share = std::floor(
      kLineRate * kDelta / static_cast<double>(std::max<std::size_t>(sending.size(), 1)));
  for (Sending& s : sending) {
    LiveCoflow& f = coflows_[s.slot];
    const double sent = std::min(s.remaining, share);
    s.remaining -= sent;
    f.conn_bytes[c] += sent;
    f.global += sent;
    report_.sizes.push_back(net::CoflowSize{f.id, f.conn_bytes[c]});
    standalone_.applySize(connDaemonId(c), f.id, f.conn_bytes[c]);
    record({StreamEvent::Kind::kSize, connDaemonId(c), f.id, f.conn_bytes[c]});
    const int queue =
        aalo::sched::queueForSize(thresholds_, static_cast<aalo::util::Bytes>(f.global));
    if (queue > f.queue) {
      f.queue = queue;
      new_crossings_.emplace_back(f.id, queue);
    }
    if (s.remaining <= 0 && --f.senders_left == 0) finished_.push_back(s.slot);
  }
  std::erase_if(sending, [](const Sending& s) { return s.remaining <= 0; });
  appendFrame(c, report_);
  ++reports_;
  lag_.observe(now_s - due_s);
}

void Fleet::endCoflow(std::uint32_t slot) {
  LiveCoflow& f = coflows_[slot];
  accounting_.cancel(f.id);
  net::Message message;
  message.type = net::MessageType::kUnregisterCoflow;
  message.coflow = f.id;
  appendFrame(kDaemonConns, message);
  standalone_.unregisterCoflow(f.id);
  record({StreamEvent::Kind::kUnregister, 0, f.id, 0});
  f = LiveCoflow{};
  free_slots_.push_back(slot);
  --live_;
}

void Fleet::onDaemonFrame(std::size_t conn, net::Buffer& payload) {
  const double now = nowSeconds();
  bytes_down_ += static_cast<double>(payload.readableBytes() + 4);
  recordFrame(payload.readable());
  const net::Message message = net::decodeMessage(payload);
  if (message.type != net::MessageType::kScheduleUpdate &&
      message.type != net::MessageType::kScheduleDelta) {
    return;
  }
  conn_epoch_[conn] = std::max(conn_epoch_[conn], message.epoch);
  accounting_.epochReceived(conn, message.epoch);
  if (message.epoch > max_epoch_) {
    max_epoch_ = message.epoch;
    record({StreamEvent::Kind::kEpoch, 0, {}, 0});
  }
  if (recording_ && spans_ != nullptr) {
    auto [it, fresh] = epoch_times_.try_emplace(message.epoch, now, now);
    if (!fresh) it->second.second = now;
  }
  for (const net::ScheduleEntry& e : message.schedule) {
    accounting_.scheduleEntry(conn, e.id, e.queue, now);
  }
}

void Fleet::onClientFrame(net::Buffer& payload) {
  const double now = nowSeconds();
  bytes_down_ += static_cast<double>(payload.readableBytes() + 4);
  recordFrame(payload.readable());
  const net::Message message = net::decodeMessage(payload);
  if (message.type != net::MessageType::kRegisterReply) return;
  const auto it = pending_registers_.find(message.request_id);
  if (it == pending_registers_.end() || !accounting_.rpcReplied(message.request_id, now)) {
    return;
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(coflows_.size());
    coflows_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  LiveCoflow& f = coflows_[slot];
  f.id = message.coflow;
  const ChurnCoflow& coflow = churn_[it->second];
  pending_registers_.erase(it);
  f.senders_left = coflow.senders.size();
  for (const auto& [daemon, bytes] : coflow.senders) {
    daemon_coflows_[daemon].push_back(Sending{slot, bytes});
  }
  ++live_;
  standalone_.registerCoflow(f.id);
  record({StreamEvent::Kind::kRegister, 0, f.id, 0});
}

void Fleet::appendFrame(std::size_t conn, const net::Message& message) {
  scratch_.clear();
  net::encodeMessage(message, scratch_);
  recordFrame(scratch_.readable());
  net::Buffer& out = outbox_[conn];
  out.putU32(static_cast<std::uint32_t>(scratch_.readableBytes()));
  out.append(scratch_.readable());
  bytes_up_ += static_cast<double>(scratch_.readableBytes() + 4);
}

// Frames are batched per connection and written straight to the socket —
// one write per connection per loop iteration instead of one per report.
// The bytes are exactly what net::Connection would send.
void Fleet::flushOutboxes() {
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    net::Buffer& out = outbox_[c];
    while (!out.empty() && !conns_[c]->closed()) {
      const ssize_t n = ::send(conns_[c]->fd(), out.peek(), out.readableBytes(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out.consume(static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // EAGAIN, or an error the connection will report.
      }
    }
    if (out.readableBytes() > kOutboxLimit) outbox_overflow_ = true;
    if (out.empty()) out.clear();
  }
}

CoordCounters Fleet::coordCounters() const {
  const std::string json = coordinator_->metrics().renderJson();
  const auto& stats = coordinator_->stats();
  CoordCounters c;
  c.frames_in = registryField(json, "aalo_coordinator_net_frames_in_total", "value");
  c.frames_out = registryField(json, "aalo_coordinator_net_frames_out_total", "value");
  c.bytes_in = registryField(json, "aalo_coordinator_net_bytes_in_total", "value");
  c.bytes_out = registryField(json, "aalo_coordinator_net_bytes_out_total", "value");
  c.delta = static_cast<double>(stats.delta_broadcasts.load());
  c.suppressed = static_cast<double>(stats.broadcasts_suppressed.load());
  c.snapshots = static_cast<double>(stats.snapshot_broadcasts.load());
  return c;
}

bool Fleet::snapshotMatches(std::string& why) {
  std::vector<net::ScheduleEntry> expected;
  standalone_.snapshotEntries(expected);
  const std::vector<net::ScheduleEntry> actual = coordinator_->scheduleSnapshot();
  if (expected == actual) return true;

  why = "coordinator schedule (" + std::to_string(actual.size()) +
        " entries) differs from the standalone ScheduleState (" +
        std::to_string(expected.size()) + " entries)";
  return false;
}

struct WindowMetrics {
  double coord_cpu_us_per_report = 0;
  double wire_bytes_per_round = 0;
  std::uint64_t reports = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
};

WindowMetrics windowMetrics(const Snapshot& a, const Snapshot& b) {
  WindowMetrics w;
  w.reports = b.reports - a.reports;
  const double coord_cpu =
      (b.process_cpu_s - a.process_cpu_s) - (b.generator_cpu_s - a.generator_cpu_s);
  w.coord_cpu_us_per_report =
      coord_cpu * 1e6 / static_cast<double>(std::max<std::uint64_t>(w.reports, 1));
  const double rounds = (b.wall_s - a.wall_s) / kDelta;
  w.wire_bytes_per_round = (b.bytes_up - a.bytes_up + b.bytes_down - a.bytes_down) / rounds;
  w.first_epoch = a.epochs + 1;
  w.last_epoch = b.epochs;
  return w;
}

/// Per-layer replays of what a traced window recorded: the stream through
/// a standalone ScheduleState, the frames through the codec.
void addReplayMetrics(RunResult& out, const Fleet& fleet,
                      const std::vector<aalo::util::Bytes>& thresholds, SpanTrace* spans) {
  {
    ScopedSpan span(spans, "runtime.state_replay");
    aalo::runtime::ScheduleState state(thresholds, 0);
    std::vector<net::ScheduleEntry> entries;
    std::vector<CoflowId> removals;
    std::vector<double> build_us;
    double apply_s = 0;
    std::size_t applied = 0;
    const auto& stream = fleet.stream();
    for (std::size_t i = 0; i < stream.size();) {
      const StreamEvent& e = stream[i];
      if (e.kind == StreamEvent::Kind::kSize) {
        // Time each run of consecutive size entries as one batch.
        std::size_t j = i;
        const double t0 = nowSeconds();
        for (; j < stream.size() && stream[j].kind == StreamEvent::Kind::kSize; ++j) {
          state.applySize(stream[j].daemon, stream[j].id, stream[j].bytes);
        }
        apply_s += nowSeconds() - t0;
        applied += j - i;
        i = j;
        continue;
      }
      if (e.kind == StreamEvent::Kind::kRegister) state.registerCoflow(e.id);
      if (e.kind == StreamEvent::Kind::kUnregister) state.unregisterCoflow(e.id);
      if (e.kind == StreamEvent::Kind::kEpoch) {
        const double t0 = nowSeconds();
        state.buildDelta(entries, removals);
        build_us.push_back((nowSeconds() - t0) * 1e6);
      }
      ++i;
    }
    out.add("runtime.apply_ns_per_entry", "ns",
            apply_s * 1e9 / static_cast<double>(std::max<std::size_t>(applied, 1)));
    out.add("runtime.build_delta_us_p99", "us", quantile(build_us, 0.99));
  }
  ScopedSpan span(spans, "net.reencode");
  std::vector<net::Message> decoded;
  decoded.reserve(fleet.frames().size());
  const double t0 = nowSeconds();
  for (const auto& bytes : fleet.frames()) {
    net::Buffer in;
    in.append(bytes.data(), bytes.size());
    decoded.push_back(net::decodeMessage(in));
  }
  const double t1 = nowSeconds();
  net::Buffer out_buf;
  for (const net::Message& m : decoded) {
    out_buf.clear();
    net::encodeMessage(m, out_buf);
  }
  const double t2 = nowSeconds();
  const double n = static_cast<double>(std::max<std::size_t>(decoded.size(), 1));
  out.add("net.encode_us_per_frame", "us", (t2 - t1) * 1e6 / n);
  out.add("net.decode_us_per_frame", "us", (t1 - t0) * 1e6 / n);
}

}  // namespace

RunResult runCoordFleet(const FleetOptions& options) {
  RunResult out;
  std::unique_ptr<SpanTrace> spans =
      options.traced ? std::make_unique<SpanTrace>(kMaxSpans) : nullptr;

  // Set-up, several times; the last fleet is the one measured.
  const std::vector<ChurnCoflow> churn = churnFromTrace(options.seed, options.seconds);
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    fleet = std::make_unique<Fleet>(churn, i + 1 == kSetups ? spans.get() : nullptr);
    setup_s.push_back(fleet->setup());
  }

  // The window. A traced run alternates untraced and traced slices. The
  // recording (stream, frames, epoch times) runs on the generator thread,
  // so its overhead shows as the change in the generator's CPU per report
  // under the same load.
  const double start = nowSeconds();
  const double window_end = start + options.seconds;
  fleet->openRegistrations(start);
  const Snapshot s0 = fleet->snapshot();
  const CoordCounters c0 = fleet->coordCounters();
  std::array<double, 2> generator_cpu_s{};  // By mode: untraced, traced.
  std::array<std::uint64_t, 2> reports{};
  {
    ScopedSpan span(spans.get(), "bench.window");
    bool traced_slice = false;
    for (double t = start; t < window_end; t += kSlice) {
      fleet->setRecording(traced_slice);
      const Snapshot a = fleet->snapshot();
      fleet->drive(std::min(t + kSlice, window_end));
      const Snapshot b = fleet->snapshot();
      generator_cpu_s[traced_slice] += b.generator_cpu_s - a.generator_cpu_s;
      reports[traced_slice] += b.reports - a.reports;
      traced_slice = options.traced && !traced_slice;
    }
  }
  const Snapshot s1 = fleet->snapshot();
  const CoordCounters c1 = fleet->coordCounters();
  fleet->setRecording(false);
  {
    ScopedSpan span(spans.get(), "bench.drain");
    fleet->drain();
  }

  // Correctness, outside the window.
  const FleetAccounting::Totals totals = fleet->accounting().finish();
  const WindowMetrics whole = windowMetrics(s0, s1);
  auto generatorCpuPerReport = [&](int mode) {
    return generator_cpu_s[mode] / static_cast<double>(std::max<std::uint64_t>(reports[mode], 1));
  };
  out.attempted += totals.rpc_attempted + totals.crossings_attempted;
  out.failed += totals.rpc_failed + totals.crossings_failed;
  if (totals.rpc_failed > 0) {
    out.notes.push_back("FAILED: " + std::to_string(totals.rpc_failed) + " register RPCs unanswered");
  }
  if (totals.crossings_failed > 0) {
    out.notes.push_back("FAILED: " + std::to_string(totals.crossings_failed) +
                        " threshold crossings not on every connection within 10 delta");
  }
  {
    const std::uint64_t epochs = whole.last_epoch - whole.first_epoch + 1;
    const std::uint64_t missing =
        fleet->accounting().incompleteEpochs(whole.first_epoch, whole.last_epoch);
    out.attempted += epochs;
    out.failed += missing;
    if (missing > 0) {
      out.notes.push_back("FAILED: " + std::to_string(missing) + " of " +
                          std::to_string(epochs) + " epochs missed a connection");
    }
  }
  {
    ScopedSpan span(spans.get(), "runtime.snapshot_check");
    std::string why;
    out.check(fleet->snapshotMatches(why), why);
  }
  const auto& stats = fleet->coordinator().stats();
  const std::uint64_t evicted = stats.daemons_evicted.load() + stats.one_way_evictions.load();
  out.check(evicted == 0, std::to_string(evicted) + " daemons evicted");
  out.check(fleet->unexpectedCloses() == 0 && !fleet->outboxOverflowed(),
            "a connection closed or backed up");
  out.check(!fleet->churnExhausted(), "the window used up the generated trace coflows");

  std::vector<double> rpc_ms, stale_ms;
  for (const double s : totals.rpc_latency_s) rpc_ms.push_back(s * 1e3);
  for (const double s : totals.staleness_s) stale_ms.push_back(s * 1e3);

  const double peak_rss_mb = peakRssMb();
  if (options.traced) {
    out.add("runtime.register_ms_p50", "ms", quantile(rpc_ms, 0.5));
    out.add("runtime.register_ms_p99", "ms", quantile(rpc_ms, 0.99));
    out.add("runtime.staleness_ms_p50", "ms", quantile(stale_ms, 0.5));
    const std::string json = fleet->coordinator().metrics().renderJson();
    out.add("runtime.round_duration_ms_p99", "ms",
            registryField(json, "aalo_coordinator_round_duration_seconds", "p99") * 1e3);
    out.add("runtime.report_apply_us_p99", "us",
            registryField(json, "aalo_coordinator_report_apply_seconds", "p99") * 1e6);
    out.add("runtime.daemons_evicted", "count", static_cast<double>(evicted));
    out.add("runtime.snapshots_sent", "count", c1.snapshots - c0.snapshots);
    out.add("net.frames_in", "count", c1.frames_in - c0.frames_in);
    out.add("net.frames_out", "count", c1.frames_out - c0.frames_out);
    out.add("net.bytes_in", "bytes", c1.bytes_in - c0.bytes_in);
    out.add("net.bytes_out", "bytes", c1.bytes_out - c0.bytes_out);
    const double schedule_frames =
        (c1.delta - c0.delta) + (c1.suppressed - c0.suppressed) + (c1.snapshots - c0.snapshots);
    // Schedule frames sent delta-coded (deltas and heartbeats) rather
    // than as full snapshots.
    out.add("net.delta_frame_share", "ratio",
            (c1.delta - c0.delta + c1.suppressed - c0.suppressed) /
                std::max(schedule_frames, 1.0));
    out.add("net.wire_bytes_per_round", "bytes", whole.wire_bytes_per_round);
    out.add("bench.loadgen_lag_p99_ms", "ms", fleet->lag().quantile(0.99) * 1e3);
    out.add("bench.trace_overhead_share", "ratio",
            generatorCpuPerReport(1) / generatorCpuPerReport(0) - 1);
    // The replays below take longer than the liveness timeout; stop the
    // coordinator first so the silent fleet is not evicted meanwhile.
    fleet->shutdown();
    addReplayMetrics(out, *fleet, aalo::sched::DClasConfig{}.thresholds(), spans.get());
  } else {
    out.add("setup_s", "s", median(setup_s));
    out.add("peak_rss_mb", "MB", peak_rss_mb);
    out.add("host_us_per_op", "us", whole.coord_cpu_us_per_report);
    out.add("delay_mean_ms", "ms", mean(stale_ms));
    out.add("delay_tail_ms", "ms", quantile(stale_ms, 0.95));
  }
  out.notes.push_back("fleet: " + std::to_string(kDaemons) + " daemons on " +
                      std::to_string(kDaemonConns) + " connections, delta " + fmt(kDelta * 1e3) +
                      " ms; " + std::to_string(whole.reports) + " reports, " +
                      std::to_string(totals.rpc_attempted) + " registers, " +
                      std::to_string(totals.staleness_s.size()) + " crossings, " +
                      fmt(fleet->meanLiveCoflows()) + " live coflows on average");
  out.notes.push_back("register_p50_ms " + fmt(quantile(rpc_ms, 0.5)) + " ms");
  out.notes.push_back("register_p99_ms " + fmt(quantile(rpc_ms, 0.99)) + " ms");
  out.notes.push_back("staleness_p50_ms " + fmt(quantile(stale_ms, 0.5)) + " ms");
  out.notes.push_back("staleness_p99_ms " + fmt(quantile(stale_ms, 0.99)) + " ms");
  out.notes.push_back("coord_cpu_us_per_report " + fmt(whole.coord_cpu_us_per_report) + " us");
  out.notes.push_back("wire_bytes_per_round " + fmt(whole.wire_bytes_per_round) + " bytes");
  out.notes.push_back("setup_s " + fmt(median(setup_s)) + " s");
  out.notes.push_back("peak_rss_mb " + fmt(peak_rss_mb) + " MB");
  out.notes.push_back("loadgen_lag_p99_ms " + fmt(fleet->lag().quantile(0.99) * 1e3) + " ms");

  if (spans && !options.trace_out.empty()) {
    for (const auto& [epoch, times] : fleet->epochTimes()) {
      spans->complete("net.epoch_fanout", times.first, times.second);
    }
    if (!spans->writeChromeJson(options.trace_out, hostFactsJson(readHostFacts()))) {
      out.notes.push_back("could not write " + options.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
