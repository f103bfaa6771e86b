#include "net/comm_hub.h"

#include <chrono>
#include <utility>

#include "net/transport_inproc.h"
#include "util/logging.h"

namespace gthinker {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

CommHub::CommHub(int num_workers, NetConfig config)
    : num_workers_(num_workers), epoch_us_(SteadyNowUs()) {
  GT_CHECK_GT(num_workers, 0);
  // Shared epoch: the transport stamps delivery times on the same clock the
  // hub measures with, so delivery_us histograms stay meaningful.
  transport_ = std::make_unique<net::InProcTransport>(num_workers, config,
                                                      epoch_us_);
}

CommHub::CommHub(int num_endpoints, std::unique_ptr<net::Transport> transport)
    : num_workers_(num_endpoints),
      epoch_us_(SteadyNowUs()),
      transport_(std::move(transport)) {
  GT_CHECK_GT(num_endpoints, 0);
  GT_CHECK(transport_ != nullptr);
}

CommHub::~CommHub() { transport_->Stop(); }

int64_t CommHub::NowUs() const { return SteadyNowUs() - epoch_us_; }

void CommHub::Send(MessageBatch batch) {
  GT_CHECK_GE(batch.dst_worker, 0);
  GT_CHECK_LT(batch.dst_worker, num_workers_);
  bytes_sent_.fetch_add(static_cast<int64_t>(batch.payload.size()),
                        std::memory_order_acq_rel);
  batches_sent_.fetch_add(1, std::memory_order_acq_rel);
  const int t = static_cast<int>(batch.type);
  sent_by_type_[t].fetch_add(1, std::memory_order_acq_rel);
  bytes_by_type_[t].fetch_add(static_cast<int64_t>(batch.payload.size()),
                              std::memory_order_relaxed);
  transport_->Send(std::move(batch));
}

bool CommHub::Receive(int worker, int64_t timeout_us, MessageBatch* out) {
  GT_CHECK_GE(worker, 0);
  GT_CHECK_LT(worker, num_workers_);
  if (!transport_->Receive(worker, timeout_us, out)) return false;
  batches_delivered_.fetch_add(1, std::memory_order_acq_rel);
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
  transport_->AppendMetrics(&snap);
  return snap;
}

}  // namespace gthinker
