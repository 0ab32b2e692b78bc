#include "probes.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "workload.h"

namespace gatebench {

using namespace lumen;

namespace {

int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Sink time of one consumer thread's flush: the runtime calls the sink
// for every record of a batch back to back, so a flush runs from the
// first sink call after a score_batch to the last call before the next.
struct SinkSpan {
  ConsumerProbe* probe = nullptr;
  bool open = false;
  int64_t start = 0;
  int64_t last = 0;

  void enter() {
    if (!open) {
      open = true;
      start = now_ns();
    }
  }
  void leave() { last = now_ns(); }
  void close() {
    if (open && probe != nullptr) probe->sink_ns += last - start;
    open = false;
  }
};
thread_local SinkSpan tl_sink;

}  // namespace

int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void wait_until(int64_t due) {
  // Spin: on a busy or virtualized host a nanosleep wakes 50 us to several
  // ms late, and the packet released after a long gap (the one that closes
  // a pipeline window) would carry that lateness into the latency.
  while (now_ns() < due) {
  }
}

// ---------------------------------------------------------------- sinks

VerdictSink::VerdictSink(const int64_t* due_ns, size_t packets, Ledger* ledger)
    : due_ns_(due_ns), ledger_(ledger) {
  if (due_ns_ != nullptr) latency_ns.assign(packets, -1);
}

void VerdictSink::on_alert(const core::Alert& alert) {
  if (ledger_ != nullptr) tl_sink.enter();
  alerts.push_back(alert.capture_index);
  if (ledger_ != nullptr) tl_sink.leave();
}

void VerdictSink::on_packet(const netio::PacketView& view, double, bool) {
  if (ledger_ != nullptr) tl_sink.enter();
  ++verdicted;
  if (due_ns_ != nullptr && view.index < latency_ns.size()) {
    latency_ns[view.index] = now_ns() - due_ns_[view.index];
  }
  if (ledger_ != nullptr) tl_sink.leave();
}

EpochVerdictSink::EpochVerdictSink(const int64_t* due_ns,
                                   const std::vector<int64_t>* closer,
                                   Ledger* ledger)
    : due_ns_(due_ns), closer_(closer), ledger_(ledger) {}

void EpochVerdictSink::on_epoch(const core::EpochBatch& batch,
                                size_t consumer) {
  const int64_t t0 = now_ns();
  alert_rows(batch, rows);
  if (due_ns_ != nullptr && batch.epoch < closer_->size() &&
      (*closer_)[batch.epoch] >= 0) {
    const auto closer = static_cast<size_t>((*closer_)[batch.epoch]);
    latency_ns.emplace_back(closer, t0 - due_ns_[closer]);
  }
  if (ledger_ != nullptr && consumer < ledger_->consumers.size()) {
    ConsumerProbe& p = ledger_->consumers[consumer];
    p.sink_ns += now_ns() - t0;
    // The chain flushes its last epochs from finish(), at the very end of
    // the consumer loop, so the last reading is the thread's total.
    p.cpu_ns = thread_cpu_ns();
  }
}

// ------------------------------------------------------------- scorers

TracedScorer::~TracedScorer() {
  // The runtime destroys a consumer's scorers when its loop returns, on
  // the consumer thread; elsewhere the reading would be another thread's.
  if (owner_ == std::this_thread::get_id()) {
    tl_sink.close();
    tl_sink.probe = nullptr;
    probe_->cpu_ns = thread_cpu_ns();
  }
}

void TracedScorer::score_batch(std::span<const netio::PacketView> views,
                               double* out) {
  if (owner_ == std::thread::id{}) {
    owner_ = std::this_thread::get_id();
    tl_sink.probe = probe_;
  }
  tl_sink.close();
  const int64_t t0 = now_ns();
  inner_->score_batch(views, out);
  probe_->score_ns += now_ns() - t0;
  ++probe_->score_calls;
  probe_->rows += views.size();
}

// ------------------------------------------------------------- drivers

namespace {

class TracedFeed : public netio::FrameFeed {
 public:
  TracedFeed(netio::FrameFeed& inner, ProducerProbe* probe)
      : inner_(inner), probe_(probe) {}
  netio::FeedStatus offer(netio::SourcePacket& packet) override {
    const int64_t t0 = now_ns();
    const netio::FeedStatus s = inner_.offer(packet);
    probe_->offer_ns += now_ns() - t0;
    ++probe_->offers;
    if (s == netio::FeedStatus::kBusy) ++probe_->busy;
    if (s == netio::FeedStatus::kAccepted) ++probe_->accepted;
    return s;
  }
  bool wait_ready() override {
    const int64_t c0 = thread_cpu_ns();
    const int64_t t0 = now_ns();
    const bool ok = inner_.wait_ready();
    probe_->wait_wall_ns += now_ns() - t0;
    probe_->wait_cpu_ns += thread_cpu_ns() - c0;
    return ok;
  }
  void account_shed(uint64_t n) override { inner_.account_shed(n); }

 private:
  netio::FrameFeed& inner_;
  ProducerProbe* probe_;
};

}  // namespace

Result<void> TracedDriver::drive(netio::FrameFeed& feed,
                                 const std::atomic<bool>& stop) {
  TracedFeed traced(feed, probe_);
  const int64_t c0 = thread_cpu_ns();
  const int64_t t0 = now_ns();
  Result<void> r = inner_.drive(traced, stop);
  probe_->drive_wall_ns += now_ns() - t0;
  probe_->drive_cpu_ns += thread_cpu_ns() - c0;
  return r;
}

Result<void> PacedDriver::drive(netio::FrameFeed& feed,
                                const std::atomic<bool>& stop) {
  const size_t n = count_;
  lag_ns.clear();
  lag_ns.reserve(n);
  netio::SourcePacket sp;
  // Time spent blocked in the runtime (a full ring) is backpressure, which
  // the latency from the due time already counts; the generator's own lag
  // runs from the later of the due time and the end of the previous offer.
  int64_t free_at = 0;
  for (size_t i = 0; i < n && !stop.load(std::memory_order_relaxed); ++i) {
    wait_until(due_ns_[i]);
    lag_ns.push_back(now_ns() - std::max(due_ns_[i], free_at));
    sp.pkt = stream_.raw[i];
    sp.capture_index = static_cast<uint32_t>(i);
    for (;;) {
      const netio::FeedStatus s = feed.offer(sp);
      if (s == netio::FeedStatus::kAccepted || s == netio::FeedStatus::kShed)
        break;
      if (s == netio::FeedStatus::kClosed) return {};
      if (!feed.wait_ready()) return {};
    }
    free_at = now_ns();
  }
  return {};
}

// -------------------------------------------------------- socket sender

SocketSender::SocketSender(uint16_t port,
                           const std::vector<std::vector<uint8_t>>& bytes,
                           const std::vector<uint32_t>& conn_of,
                           const std::vector<size_t>& rec_end,
                           const int64_t* due_ns, size_t count)
    : port_(port),
      bytes_(bytes),
      conn_of_(conn_of),
      rec_end_(rec_end),
      due_ns_(due_ns),
      count_(count),
      thread_([this] { run(); }) {}

SocketSender::~SocketSender() {
  if (thread_.joinable()) thread_.join();
}

std::string SocketSender::join() {
  if (thread_.joinable()) thread_.join();
  return error_;
}

void SocketSender::run() {
  const size_t conns = bytes_.size();
  std::vector<int> fds(conns, -1);
  const auto close_all = [&] {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  };
  for (size_t c = 0; c < conns; ++c) {
    fds[c] = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port_);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    if (fds[c] < 0 ||
        ::setsockopt(fds[c], IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0 ||
        ::connect(fds[c], reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      error_ = std::string("connect: ") + std::strerror(errno);
      close_all();
      return;
    }
    ::fcntl(fds[c], F_SETFL, ::fcntl(fds[c], F_GETFL) | O_NONBLOCK);
  }

  std::vector<size_t> sent(conns, 0),
      target(conns, netio::WireFormat::kHelloBytes);
  // Write every connection up to its target, polling the ones whose send
  // buffer is full (the gateway paused them or has not read yet).
  const auto flush = [&]() -> bool {
    std::vector<pollfd> pfds;
    for (;;) {
      pfds.clear();
      for (size_t c = 0; c < conns; ++c) {
        while (sent[c] < target[c]) {
          const size_t chunk = std::min<size_t>(target[c] - sent[c], 256 << 10);
          const ssize_t w =
              ::send(fds[c], bytes_[c].data() + sent[c], chunk, MSG_NOSIGNAL);
          if (w > 0) {
            sent[c] += static_cast<size_t>(w);
            continue;
          }
          if (w < 0 && errno == EINTR) continue;
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pfds.push_back(pollfd{fds[c], POLLOUT, 0});
            break;
          }
          error_ = std::string("send: ") + std::strerror(errno);
          return false;
        }
      }
      if (pfds.empty()) return true;
      ::poll(pfds.data(), pfds.size(), 100);
    }
  };

  if (due_ns_ == nullptr) {
    for (size_t i = 0; i < count_; ++i) target[conn_of_[i]] = rec_end_[i];
    if (!flush()) {
      close_all();
      return;
    }
  } else {
    lag_ns.reserve(count_);
    // As in PacedDriver: a send blocked by the gateway's backpressure is
    // not generator lag.
    size_t next = 0;
    int64_t free_at = 0;
    while (next < count_) {
      wait_until(due_ns_[next]);
      const int64_t now = now_ns();
      while (next < count_ && due_ns_[next] <= now) {
        target[conn_of_[next]] = rec_end_[next];
        lag_ns.push_back(now - std::max(due_ns_[next], free_at));
        ++next;
      }
      if (!flush()) {
        close_all();
        return;
      }
      free_at = now_ns();
    }
  }
  // End every stream with a FIN record.
  std::vector<uint8_t> fin;
  netio::append_fin(fin);
  for (size_t c = 0; c < conns; ++c) {
    size_t off = 0;
    while (off < fin.size()) {
      const ssize_t w = ::send(fds[c], fin.data() + off, fin.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        pollfd pfd{fds[c], POLLOUT, 0};
        ::poll(&pfd, 1, 100);
      } else {
        error_ = std::string("send fin: ") + std::strerror(errno);
        close_all();
        return;
      }
    }
  }
  frames_sent_ = count_;
  close_all();
}

}  // namespace gatebench
