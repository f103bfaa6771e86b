#ifndef GTHINKER_CORE_MASTER_H_
#define GTHINKER_CORE_MASTER_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/config.h"
#include "core/job_report.h"
#include "core/protocol.h"
#include "net/comm_hub.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "storage/mini_dfs.h"
#include "util/logging.h"
#include "util/serializer.h"
#include "util/timer.h"

namespace gthinker {

/// The master's record of one committed checkpoint (ckpt/<epoch>/meta): the
/// global aggregate, plus what a resume must match. Task contexts and pulls
/// in a checkpoint are vertex IDs, valid only in the ID space they were
/// taken in, so the meta records whether the workers spoke hub-last IDs.
template <typename AggT>
struct CheckpointMeta {
  uint64_t epoch = 0;
  int32_t num_workers = 0;
  AggT global{};
  bool hub_last = false;

  std::string Encode() const {
    Serializer ser;
    ser.Write(epoch);
    ser.Write(num_workers);
    Codec<AggT>::Encode(ser, global);
    ser.Write<uint8_t>(hub_last ? 1 : 0);
    return ser.Release();
  }

  /// Total: the flag comes last, so a meta written before it existed (or a
  /// truncated one) fails with Corruption rather than decoding shifted bytes.
  Status Decode(const std::string& blob) {
    Deserializer des(blob);
    GT_RETURN_IF_ERROR(des.Read(&epoch));
    GT_RETURN_IF_ERROR(des.Read(&num_workers));
    GT_RETURN_IF_ERROR(Codec<AggT>::Decode(des, &global));
    uint8_t flag = 0;
    GT_RETURN_IF_ERROR(des.Read(&flag));
    if (flag > 1 || !des.AtEnd()) {
      return Status::Corruption("checkpoint meta: bad layout flag or trailer");
    }
    hub_last = flag == 1;
    return Status::Ok();
  }
};

/// The master (paper §V-B), endpoint `num_workers` of the hub. It reads the
/// workers' progress reports, syncs the aggregator, plans steals,
/// coordinates checkpoints and detects termination: every worker idle and
/// the data-message flow balanced, stable across two consecutive global
/// snapshots (Mattern 1987). Its only per-worker state is each worker's
/// latest report, so a checkpoint ack, the checkpoint quiesce and the drain
/// release all read report fields, not messages of their own.
template <typename ComperT>
class Master {
 public:
  using AggT = typename ComperT::AggT;

  /// Only kMining ends the job on two quiet snapshots or plans steals.
  enum class Phase {
    kMining,
    kQuiescing,      // a checkpoint is due; steal traffic leaves the wire
    kCheckpointing,  // the request is out; epoch reports are awaited
    kDraining,       // kTerminate is out; the wire empties
    kReleased,       // the release is out; final reports are awaited
  };

  /// `global` and `next_checkpoint_epoch` are where a resumed job picks up
  /// (AggZero and 1 for a fresh one). `checkpoint_dfs` may be null when the
  /// job does not checkpoint. The budget and silence clocks start here.
  Master(const JobConfig& config, CommHub* hub, obs::FlightRecorder* recorder,
         MiniDfs* checkpoint_dfs, bool hub_last, AggT global,
         uint64_t next_checkpoint_epoch)
      : config_(config),
        hub_(hub),
        recorder_(recorder),
        checkpoint_dfs_(checkpoint_dfs),
        hub_last_(hub_last),
        num_workers_(config.num_workers),
        id_(config.num_workers),
        global_(std::move(global)),
        latest_(config.num_workers),
        fresh_(config.num_workers, false),
        next_epoch_(next_checkpoint_epoch) {
    for (int w = 0; w < num_workers_; ++w) {
      for (const char* gauge : obs::kWorkerSampledGauges) {
        series_.emplace_back(gauge, w);
      }
    }
  }

  /// Runs the job and its drain (Worker::CommLoop) on the calling thread;
  /// returns once every worker's final report has arrived. After kTerminate
  /// the master releases the workers with an empty kDrainBarrier, once the
  /// reports prove the wire empty (WireEmpty); the release means "send your
  /// final report and exit".
  ///
  /// Workers heartbeat with reports until the release, also while a comper
  /// finishes an uninterruptible Compute() after kTerminate. So one that
  /// owes its final report and is silent for drain_timeout_us (a dead or
  /// wedged rank) fails the job: returning without it would be partial.
  void Run() {
    last_heard_us_.assign(num_workers_, wall_.ElapsedMicros());
    while (!std::all_of(latest_.begin(), latest_.end(),
                        [](const ProgressReport& r) {
                          return r.final_report != 0;
                        })) {
      CheckSilence();
      MessageBatch mb;
      if (hub_->Receive(id_, config_.progress_interval_us, &mb)) {
        if (mb.src_worker >= 0 && mb.src_worker < num_workers_) {
          last_heard_us_[mb.src_worker] = wall_.ElapsedMicros();
        }
        GT_CHECK(mb.type == MsgType::kProgressReport)
            << "master: unexpected message type " << static_cast<int>(mb.type);
        TakeReport(mb);
      }
      if (Terminated()) continue;
      if (std::all_of(fresh_.begin(), fresh_.end(), [](bool b) { return b; })) {
        TakeSnapshot();
      }
      RequestReports();
      CheckBudget();
      StepCheckpoint();
      if (phase_ == Phase::kDraining) Broadcast(MsgType::kTerminate, "");
    }
  }

  // -- results, read once Run returned --
  AggT TakeGlobal() { return std::move(global_); }
  bool timed_out() const { return timed_out_; }
  int64_t checkpoints() const { return checkpoints_; }
  std::vector<obs::BoundedSeries>& series() { return series_; }

  /// The latest reports (agg_delta cleared), safe from any thread: the
  /// status server's view, and every final report once Run returned.
  std::vector<ProgressReport> LatestCopy() const {
    std::lock_guard<std::mutex> lock(latest_mu_);
    return latest_;
  }

  /// Sends one steal order per starving worker, from the most loaded one
  /// (paper §V-B "Task Stealing": idle machines prefetch task batches from
  /// busy machines via master-made plans). Public so a test can drive it
  /// with fixed reports.
  /// Returns the number of orders sent.
  static int64_t PlanSteals(const std::vector<ProgressReport>& latest,
                            const JobConfig& config, int master_id,
                            CommHub* hub) {
    const int64_t batch = config.task_batch_size;
    int64_t orders = 0;
    for (size_t i = 0; i < latest.size(); ++i) {
      if (latest[i].idle == 0 || latest[i].remaining_estimate > 0) continue;
      // worker i is starving; find the most loaded donor
      int donor = -1;
      int64_t best = 2 * batch;  // only steal from meaningfully-loaded donors
      for (size_t j = 0; j < latest.size(); ++j) {
        if (j == i) continue;
        if (latest[j].remaining_estimate > best) {
          best = latest[j].remaining_estimate;
          donor = static_cast<int>(j);
        }
      }
      if (donor < 0) continue;
      // Stamp the order with the hub clock; the recipient of the resulting
      // kTaskBatch closes the round-trip measurement (steal.rtt_us).
      hub->Send({.src_worker = master_id,
                 .dst_worker = donor,
                 .type = MsgType::kStealOrder,
                 .payload = EncodeStealOrder(static_cast<int32_t>(i),
                                             hub->NowUs())});
      ++orders;
    }
    return orders;
  }

 private:
  /// A snapshot is quiet when every worker is idle, the data-message flow
  /// balances and the global task ledger is conserved. Its sent total is
  /// all a comparison needs: each worker's data_sent and data_processed are
  /// monotone and its reports arrive in order, so equal totals in two
  /// snapshots mean equal per-worker counts, and in two quiet snapshots
  /// (sent == processed in each) equal sent totals mean equal processed
  /// totals too.
  struct Snapshot {
    bool quiet = false;
    int64_t sent_total = 0;
  };

  /// True while the worker whose latest report is `r` owes the report that
  /// acks the active checkpoint.
  bool CheckpointPending(const ProgressReport& r) const {
    return r.checkpoint_epoch < active_epoch_;
  }

  /// kTerminate is out.
  bool Terminated() const {
    return phase_ == Phase::kDraining || phase_ == Phase::kReleased;
  }

  /// The drain release's predicate over the latest reports: every worker
  /// quiesced, every request batch answered, and every donated task
  /// received. Stable once true: a quiesced worker originates nothing (its
  /// compers are gone and its coalescer flushed) and handled its last steal
  /// order before kTerminate (per-link FIFO), so each term only moves toward
  /// its target. When all three hold, no request, response or task batch is
  /// on any link.
  bool WireEmpty() const {
    TaskLedger sum;
    for (const ProgressReport& r : latest_) {
      if (r.quiesced == 0 || r.requests_unanswered != 0) return false;
      sum.Accumulate(r.ledger);
    }
    return sum.donated == sum.received;
  }

  /// The checkpoint quiesce's predicate: every steal order sent has been
  /// handled, so every task batch it will ever produce is counted as
  /// donated, and every donated task has been received. Stable while no
  /// order goes out (kQuiescing).
  bool StealTrafficSettled() const {
    int64_t handled = 0;
    TaskLedger sum;
    for (const ProgressReport& r : latest_) {
      handled += r.steal_orders_handled;
      sum.Accumulate(r.ledger);
    }
    return handled == steal_orders_sent_ && sum.donated == sum.received;
  }

  // Broadcasting a Payload is cheap by design: each copy bumps the buffer's
  // refcount, so all N workers share the sender's one encoding.
  void Broadcast(MsgType type, const Payload& payload) {
    for (int w = 0; w < num_workers_; ++w) {
      hub_->Send({.src_worker = id_, .dst_worker = w, .type = type,
                  .payload = payload});
    }
  }

  void CheckSilence() {
    const int64_t now_us = wall_.ElapsedMicros();
    for (int w = 0; w < num_workers_; ++w) {
      // A worker that owes a checkpoint ack is parking its compers, which
      // may sit in a long Compute(), so its comm thread cannot heartbeat.
      if (latest_[w].final_report != 0 || CheckpointPending(latest_[w]) ||
          now_us - last_heard_us_[w] <= config_.drain_timeout_us) {
        continue;
      }
      const bool terminated = Terminated();
      std::string no_quiesce, no_final;
      int finals_missing = 0;
      for (int v = 0; v < num_workers_; ++v) {
        if (latest_[v].quiesced == 0) no_quiesce += " " + std::to_string(v);
        if (latest_[v].final_report != 0) continue;
        no_final += " " + std::to_string(v);
        ++finals_missing;
      }
      // The fatal hook writes the crash dump, this event included.
      recorder_->Record({.t_us = hub_->NowUs(),
                         .kind = obs::EventKind::kDrain,
                         .a = 5,  // phase: master silence bound tripped
                         .b = finals_missing});
      LOG_FATAL << "master: worker " << w << " silent for "
                << config_.drain_timeout_us << " us "
                << (terminated ? "after" : "before") << " kTerminate"
                << (terminated ? "; no quiesced report from worker(s)" +
                                     no_quiesce +
                                     "; no final report from worker(s)" +
                                     no_final
                               : "");
    }
  }

  /// Merges, records and publishes a report; then commits the checkpoint
  /// or sends the drain release it completes.
  void TakeReport(const MessageBatch& mb) {
    ProgressReport report;
    GT_CHECK_OK(report.Decode(mb.payload));
    const int32_t w = report.worker_id;
    // The master indexes per-worker state by the worker a report names. The
    // transport ties mb.src_worker to the link a batch arrived on, so a
    // report naming any other worker is a protocol violation, never an
    // index.
    GT_CHECK(w >= 0 && w < num_workers_ && w == mb.src_worker)
        << "master: " << MsgTypeName(mb.type) << " from endpoint "
        << mb.src_worker << " names worker " << w
        << "; expected the sender itself, in [0, " << num_workers_ << ")";
    GT_CHECK(report.quiesced == 0 || Terminated())
        << "master: quiesced report from worker " << w
        << " before kTerminate";
    AggT delta{};
    Deserializer des(report.agg_delta);
    GT_CHECK_OK(Codec<AggT>::Decode(des, &delta));
    report.agg_delta.clear();
    // Per-link FIFO delivers everything a worker committed before its
    // snapshot on or before the report that acks it, so deltas merge into
    // the checkpoint aggregate up to that report and never after it.
    if (phase_ == Phase::kCheckpointing && CheckpointPending(latest_[w])) {
      ckpt_global_ = ComperT::AggMerge(ckpt_global_, delta);
    }
    global_ = ComperT::AggMerge(global_, delta);
    const int64_t t = hub_->NowUs();
    const auto gauges = SampledGauges(report);
    for (size_t g = 0; g < gauges.size(); ++g) {
      series_[w * gauges.size() + g].Append(t, gauges[g]);
    }
    {
      std::lock_guard<std::mutex> lock(latest_mu_);
      latest_[w] = std::move(report);
    }
    const ProgressReport& r = latest_[w];
    // A worker's final report is the last one it sends.
    if (r.final_report != 0) return;
    fresh_[w] = true;
    if (r.idle == 0) asked_ = false;

    if (phase_ == Phase::kCheckpointing &&
        std::none_of(latest_.begin(), latest_.end(),
                     [this](const ProgressReport& x) {
                       return CheckpointPending(x);
                     })) {
      GT_CHECK_OK(checkpoint_dfs_->Put(
          "ckpt/" + std::to_string(active_epoch_) + "/meta",
          CheckpointMeta<AggT>{active_epoch_, num_workers_, ckpt_global_,
                               hub_last_}
              .Encode()));
      ++checkpoints_;
      phase_ = Phase::kMining;
    }

    if (phase_ == Phase::kDraining && WireEmpty()) {
      Broadcast(MsgType::kDrainBarrier, "");
      phase_ = Phase::kReleased;
    }
  }

  /// A global snapshot over `latest_`; every worker reported since the last.
  void TakeSnapshot() {
    bool all_idle = true;
    int64_t sent = 0, processed = 0, live = 0;
    TaskLedger sum;
    for (const ProgressReport& r : latest_) {
      all_idle = all_idle && r.idle != 0;
      sent += r.data_sent;
      processed += r.data_processed;
      sum.Accumulate(r.ledger);
      live += r.tasks_live;
    }
    // Task conservation: the summed ledger must account for exactly the
    // tasks the workers report alive. In-flight kTaskBatch records are
    // neutral (donor already counted `donated`, recipient not yet
    // `received`), so a correct system balances at every snapshot; the
    // counters are read without a global freeze, though, so a transient
    // skew only delays termination by one snapshot rather than failing.
    const Snapshot snap{
        all_idle && sent == processed && sum.ExpectedLive() == live, sent};

    Serializer agg;
    Codec<AggT>::Encode(agg, global_);
    Broadcast(MsgType::kAggregatorSync, Payload(agg.Release()));

    if (snap.quiet && prev_.quiet && snap.sent_total == prev_.sent_total &&
        phase_ == Phase::kMining) {
      phase_ = Phase::kDraining;
    } else if (config_.enable_stealing && !all_idle &&
               phase_ == Phase::kMining) {
      steal_orders_sent_ += PlanSteals(latest_, config_, id_, hub_);
    }
    if (snap.quiet) {
      recorder_->Record({.t_us = hub_->NowUs(),
                         .kind = obs::EventKind::kDetect,
                         .a = 0,
                         .b = sent});
      asked_ = false;  // ask for the confirming snapshot
    }
    if (phase_ == Phase::kDraining) {
      recorder_->Record({.t_us = hub_->NowUs(),
                         .kind = obs::EventKind::kDetect,
                         .a = 1,
                         .b = sent});
    }
    prev_ = snap;
    std::fill(fresh_.begin(), fresh_.end(), false);
  }

  /// Once every latest report says idle, asks the workers that have not
  /// reported since the last snapshot for a report now (after a quiet one,
  /// all of them). `asked_` allows one request per worker until a report
  /// says busy or a snapshot is quiet, so requests never ping-pong.
  void RequestReports() {
    if (phase_ != Phase::kMining || asked_ ||
        !std::all_of(latest_.begin(), latest_.end(),
                     [](const ProgressReport& r) { return r.idle != 0; })) {
      return;
    }
    for (int w = 0; w < num_workers_; ++w) {
      if (fresh_[w]) continue;
      hub_->Send({.src_worker = id_, .dst_worker = w,
                  .type = MsgType::kReportRequest, .payload = {}});
    }
    asked_ = true;
  }

  void CheckBudget() {
    if (Terminated() || config_.time_budget_s <= 0.0 ||
        wall_.ElapsedSeconds() <= config_.time_budget_s) {
      return;
    }
    timed_out_ = true;
    phase_ = Phase::kDraining;
    // A budget exit is a diagnosis moment: dump the recent event history so
    // the state that failed to converge is inspectable post-mortem.
    recorder_->Record({.t_us = hub_->NowUs(),
                       .kind = obs::EventKind::kTimeout,
                       .a = static_cast<int64_t>(wall_.ElapsedSeconds())});
    obs::FlightRecorder::WriteCrashDump("timeout");
  }

  /// Checkpoint quiesce (paper §V-B fault tolerance, hardened). It reads
  /// only reports; Validate still rejects checkpoints under tcp, since a
  /// resume across ranks is not built.
  void StepCheckpoint() {
    if (phase_ == Phase::kMining && config_.checkpoint_interval_us > 0 &&
        ckpt_timer_.ElapsedMicros() >= config_.checkpoint_interval_us) {
      // Stop feeding the wire with steal orders and wait for in-flight
      // stealing traffic to settle before asking anyone to snapshot, so no
      // donated batch can fall between the donor's and the recipient's
      // snapshots (outside both). Fresh reports settle it sooner than the
      // cadence would.
      phase_ = Phase::kQuiescing;
      Broadcast(MsgType::kReportRequest, "");
    }
    if (phase_ == Phase::kQuiescing && StealTrafficSettled()) {
      phase_ = Phase::kCheckpointing;
      active_epoch_ = next_epoch_++;
      ckpt_global_ = global_;  // everything merged so far is pre-snapshot
      Broadcast(MsgType::kCheckpointRequest,
                CheckpointRequest{active_epoch_}.Encode());
      ckpt_timer_.Restart();
    }
  }

  const JobConfig config_;
  CommHub* const hub_;
  obs::FlightRecorder* const recorder_;
  MiniDfs* const checkpoint_dfs_;
  const bool hub_last_;
  const int num_workers_;
  const int id_;  // the master's hub endpoint, num_workers_

  Timer wall_;  // the budget's and the silence bound's clock
  Phase phase_ = Phase::kMining;
  AggT global_;

  // The latest progress report from every worker (agg_delta cleared). Only
  // the master thread writes it, under latest_mu_, and reads it unlocked.
  std::vector<ProgressReport> latest_;
  mutable std::mutex latest_mu_;
  // Each report's gauges (obs::kWorkerSampledGauges), one series per worker
  // and gauge, stamped with the hub clock as the master decodes it.
  std::vector<obs::BoundedSeries> series_;
  std::vector<int64_t> last_heard_us_;

  std::vector<bool> fresh_;  // reported since the last snapshot
  Snapshot prev_;
  bool asked_ = false;
  int64_t steal_orders_sent_ = 0;

  Timer ckpt_timer_;
  uint64_t next_epoch_;
  uint64_t active_epoch_ = 0;  // the last epoch requested
  AggT ckpt_global_{};
  int64_t checkpoints_ = 0;
  bool timed_out_ = false;
};

}  // namespace gthinker

#endif  // GTHINKER_CORE_MASTER_H_
