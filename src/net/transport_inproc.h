#ifndef GTHINKER_NET_TRANSPORT_INPROC_H_
#define GTHINKER_NET_TRANSPORT_INPROC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "util/concurrent_queue.h"

namespace gthinker::net {

/// Per-endpoint inbox of message batches.
using Mailbox = ConcurrentQueue<MessageBatch>;

/// The default backend: every endpoint lives in this process and batches
/// move by handle through per-endpoint mailboxes (DESIGN.md substitution
/// table). The simulated-interconnect knobs (NetConfig latency/bandwidth)
/// are honored exactly as the pre-transport CommHub did: each non-local
/// batch is stamped with a delivery time computed by serializing on its
/// (src,dst) link, and the receiver sleeps out any remaining latency.
class InProcTransport final : public Transport {
 public:
  /// `epoch_us` anchors delivery stamping to the owning hub's clock (pass
  /// CommHub's epoch so NowUs readings and stamps agree).
  InProcTransport(int num_endpoints, NetConfig config, int64_t epoch_us);

  const char* name() const override { return "inproc"; }
  Status Start() override { return Status::Ok(); }
  void Stop() override {}
  void Send(MessageBatch batch) override;
  bool Receive(int endpoint, int64_t timeout_us, MessageBatch* out) override;
  void Wake(int endpoint) override { mailboxes_[endpoint]->Wake(); }
  int64_t InboxDepth(int endpoint) const override {
    return static_cast<int64_t>(mailboxes_[endpoint]->Size());
  }
  void AppendMetrics(obs::MetricsSnapshot* /*snap*/) const override {}

 private:
  struct Link {
    /// Time at which the simulated link becomes free (bandwidth modeling).
    std::atomic<int64_t> free_at_us{0};
  };

  Link& LinkFor(int src, int dst) {
    return links_[src * num_endpoints_ + dst];
  }
  int64_t NowUs() const;

  const int num_endpoints_;
  const NetConfig config_;
  const int64_t epoch_us_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<Link> links_;
};

}  // namespace gthinker::net

#endif  // GTHINKER_NET_TRANSPORT_INPROC_H_
