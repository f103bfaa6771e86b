#include "net/comm_hub.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace gthinker {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CommHub::CommHub(int num_endpoints, NetConfig config)
    : num_workers_(num_endpoints),
      config_(config),
      epoch_us_(SteadyNowUs()),
      inboxes_(static_cast<size_t>(num_endpoints)),
      link_free_at_us_(config.latency_us != 0 || config.bandwidth_mbps != 0.0
                           ? static_cast<size_t>(num_endpoints) * num_endpoints
                           : 0) {
  GT_CHECK_GT(num_endpoints, 0);
}

CommHub::CommHub(int num_endpoints, std::unique_ptr<net::Transport> transport)
    : num_workers_(num_endpoints),
      epoch_us_(SteadyNowUs()),
      inboxes_(static_cast<size_t>(num_endpoints)),
      transport_(std::move(transport)) {
  GT_CHECK_GT(num_endpoints, 0);
  GT_CHECK(transport_ != nullptr);
}

CommHub::~CommHub() { Shutdown(); }

Status CommHub::Start() {
  if (!transport_) return Status::Ok();
  return transport_->Start([this](MessageBatch batch) {
    inboxes_[batch.dst_worker].Push(std::move(batch));
  });
}

int64_t CommHub::NowUs() const { return SteadyNowUs() - epoch_us_; }

int64_t CommHub::Sum(const PerKind& counts) {
  int64_t sum = 0;
  for (const auto& c : counts) sum += c.load(std::memory_order_acquire);
  return sum;
}

void CommHub::Send(MessageBatch batch) {
  GT_CHECK_GE(batch.dst_worker, 0);
  GT_CHECK_LT(batch.dst_worker, num_workers_);
  const int t = static_cast<int>(batch.type);
  sent_by_type_[t].fetch_add(1, std::memory_order_acq_rel);
  bytes_by_type_[t].fetch_add(static_cast<int64_t>(batch.payload.size()),
                              std::memory_order_relaxed);
  if (transport_) {
    transport_->Send(std::move(batch));
    return;
  }
  const int64_t now = NowUs();
  batch.sent_at_us = now;
  batch.deliver_at_us = now;
  // Local (same-endpoint) traffic bypasses the simulated wire, matching a
  // real deployment where intra-machine data never leaves the process.
  if (!link_free_at_us_.empty() && batch.src_worker != batch.dst_worker &&
      batch.src_worker >= 0) {
    int64_t tx_us = 0;
    if (config_.bandwidth_mbps > 0.0) {
      tx_us = static_cast<int64_t>(batch.payload.size() * 8.0 /
                                   config_.bandwidth_mbps);
    }
    // Serialize on the (src,dst) link: the batch starts transmitting when
    // the link frees up, occupies it for tx_us, then takes latency to land.
    std::atomic<int64_t>& free_at_us =
        link_free_at_us_[batch.src_worker * num_workers_ + batch.dst_worker];
    int64_t free_at = free_at_us.load(std::memory_order_relaxed);
    int64_t done;
    do {
      done = std::max(now, free_at) + tx_us;
    } while (!free_at_us.compare_exchange_weak(free_at, done,
                                               std::memory_order_relaxed));
    batch.deliver_at_us = done + config_.latency_us;
  }
  inboxes_[batch.dst_worker].Push(std::move(batch));
}

bool CommHub::Receive(int worker, int64_t timeout_us, MessageBatch* out) {
  GT_CHECK_GE(worker, 0);
  GT_CHECK_LT(worker, num_workers_);
  if (transport_) transport_->CheckLinks();
  auto popped = inboxes_[worker].PopFor(std::chrono::microseconds(timeout_us));
  if (!popped.has_value()) {
    if (transport_) transport_->CheckLinks();
    return false;
  }
  // Honor the simulated wire time: since each link is FIFO and delivery
  // times are monotone per link, sleeping here preserves per-link order.
  const int64_t wait = popped->deliver_at_us - NowUs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
  *out = std::move(*popped);
  const int t = static_cast<int>(out->type);
  delivered_by_type_[t].fetch_add(1, std::memory_order_relaxed);
  if (out->sent_at_us > 0) {
    delivery_us_[t].Record(NowUs() - out->sent_at_us);
  }
  return true;
}

obs::MetricsSnapshot CommHub::MetricsSnapshot() const {
  obs::MetricsSnapshot snap;
  snap.scope = "hub";
  snap.counters.emplace_back("hub.batches_sent", TotalBatchesSent());
  snap.counters.emplace_back("hub.batches_delivered", TotalBatchesDelivered());
  snap.counters.emplace_back("hub.bytes_sent", TotalBytesSent());
  for (int t = 0; t < kNumMsgTypes; ++t) {
    const char* kind = MsgTypeName(static_cast<MsgType>(t));
    const int64_t sent = sent_by_type_[t].load(std::memory_order_acquire);
    if (sent == 0) continue;  // keep the report free of silent message kinds
    const std::string prefix = std::string("hub.") + kind;
    snap.counters.emplace_back(prefix + ".sent", sent);
    snap.counters.emplace_back(
        prefix + ".delivered",
        delivered_by_type_[t].load(std::memory_order_acquire));
    snap.counters.emplace_back(
        prefix + ".bytes", bytes_by_type_[t].load(std::memory_order_acquire));
    obs::HistogramSnapshot h = delivery_us_[t].Snapshot();
    if (h.count > 0) {
      h.name = "hub.delivery_us";
      h.labels = std::string("kind=") + kind;
      snap.histograms.push_back(std::move(h));
    }
  }
  if (transport_) transport_->AppendMetrics(&snap);
  return snap;
}

}  // namespace gthinker
