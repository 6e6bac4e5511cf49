// Provisioner: ties a placement policy to a live Cloud.  Serves single
// requests (granting leases), keeps a FIFO wait queue for requests that do
// not fit, and drains the queue on release — optionally as a batch through
// Algorithm 2.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cloud.h"
#include "placement/global_subopt.h"
#include "placement/policy.h"

namespace vcopt::placement {

/// Result of a grant: the lease plus the evaluated placement.
struct Grant {
  cluster::LeaseId lease = 0;
  std::uint64_t request_id = 0;  ///< id of the Request this grant serves
  Placement placement;
};

/// Explicit terminal/interim status of a provisioning or repair attempt.
/// Every path through the provisioner and the fault/recovery layer ends in
/// one of these — never an assert, a silent empty allocation, or a dropped
/// request.
enum class PlacementStatus {
  kGranted,              ///< full allocation, optimal for the rung that made it
  kQueued,               ///< admissible later; waiting in the queue
  kRejectedEmpty,        ///< zero-VM request: nothing to place
  kRejectedShape,        ///< request/catalog type-count mismatch
  kRejectedOverCapacity, ///< exceeds total capacity; can never be served
  kRepaired,             ///< failure repair replaced every lost VM
  kDegraded,             ///< full allocation from a fallback rung (suboptimal)
  kPartial,              ///< best-effort allocation: fewer VMs than requested
  kAbandoned,            ///< nothing could be placed / repair gave up
};

const char* to_string(PlacementStatus s);
/// True for statuses that conclude an attempt (everything but kQueued).
bool is_terminal(PlacementStatus s);

/// Typed outcome of Provisioner::submit / submit_laddered.
struct ProvisionResult {
  PlacementStatus status = PlacementStatus::kAbandoned;
  std::optional<Grant> grant;  ///< set for kGranted/kDegraded/kPartial
  int requested_vms = 0;
  int granted_vms = 0;
};

/// Tuning for the graceful-degradation ladder (submit_laddered): exact ILP
/// under a wall-clock budget, then the online heuristic, then an explicit
/// best-effort partial allocation.
struct LadderOptions {
  double ilp_budget_ms = 50;        ///< wall-clock budget for the exact rung
  std::size_t ilp_max_nodes = 20000;  ///< B&B node budget within that time
  std::size_t ilp_max_variables = 4096;  ///< skip the exact rung above this
  bool allow_partial = true;        ///< false: failed full fits -> kAbandoned
};

/// A fully planned — but not yet granted — ladder outcome: the pure result
/// of plan_laddered.  `placement` and `effective` are set for the granting
/// statuses (kGranted / kDegraded / kPartial); actually applying the grant
/// (and obtaining a lease id) is the caller's job.
struct LadderPlan {
  PlacementStatus status = PlacementStatus::kAbandoned;
  std::optional<Placement> placement;
  /// The request the grant should be recorded under: the original request,
  /// or the clipped per-type counts for a kPartial plan.
  std::optional<cluster::Request> effective;
  int requested_vms = 0;
  int granted_vms = 0;
};

/// The graceful-degradation ladder as a pure function of a capacity view:
/// identical rung sequence to Provisioner::submit_laddered (shape -> empty
/// -> over-capacity -> budgeted exact ILP -> heuristic -> best-effort
/// partial) but reads only the arguments and mutates nothing, so the
/// placement service can plan against a working capacity view (a cell's
/// rows, or the whole cloud) and grant the plan itself.
/// `capacity_col_sums[j]` must be sum_i M_ij (including drained/failed
/// nodes) — the admit() kReject test.
/// Provisioner::submit_laddered routes through this function, so the two
/// can never diverge.
LadderPlan plan_laddered(const cluster::Request& r,
                         const util::IntMatrix& remaining,
                         const cluster::Topology& topology,
                         const std::vector<int>& capacity_col_sums,
                         PlacementPolicy& policy,
                         const LadderOptions& options = {});

/// Wait-queue service order (§III.C mentions FIFO and priority-based).
enum class QueueDiscipline {
  kFifo,           ///< arrival order, strict head-of-line blocking
  kPriority,       ///< highest Request::priority first (ties: arrival order)
  kSmallestFirst,  ///< fewest VMs first (reduces head-of-line blocking)
};

const char* to_string(QueueDiscipline d);

class Provisioner {
 public:
  Provisioner(cluster::Cloud& cloud, std::unique_ptr<PlacementPolicy> policy,
              QueueDiscipline discipline = QueueDiscipline::kFifo);

  /// Tries to serve a request immediately.  Returns the grant, or nullopt —
  /// the request was then either queued (admission kWait, or earlier
  /// requests are still waiting: strict FIFO, no queue-jumping) or rejected
  /// outright (zero VMs or over total capacity, counted in rejected_count()).
  /// Throws std::invalid_argument on a request/catalog shape mismatch.
  std::optional<Grant> request(const cluster::Request& r);

  /// Typed variant of request(): same queueing semantics, but the outcome is
  /// an explicit PlacementStatus (zero-VM and over-capacity requests get
  /// typed rejections recorded in metrics instead of an assert or a silent
  /// empty allocation).
  ProvisionResult submit(const cluster::Request& r);

  /// Graceful-degradation ladder: serve `r` NOW, degrading instead of
  /// queueing or failing silently.  Rungs: (1) exact SD ILP under
  /// `options.ilp_budget_ms` of wall clock -> kGranted (kDegraded if the
  /// node/time budget truncated the search and the incumbent is unproven);
  /// (2) the provisioner's online policy -> kDegraded; (3) best-effort
  /// partial allocation of min(R_j, available_j) VMs per type -> kPartial;
  /// otherwise kAbandoned.  Typed rejections as in submit().  The wait queue
  /// is bypassed by design — callers that want queueing use submit().
  ProvisionResult submit_laddered(const cluster::Request& r,
                                  const LadderOptions& options = {});

  /// Releases a lease and drains the wait queue in discipline order,
  /// stopping at the first unservable candidate (head-of-line blocking
  /// within the discipline).  Returns the grants made while draining.
  std::vector<Grant> release(cluster::LeaseId lease);

  /// Drains the wait queue as one batch via Algorithm 2 instead of FIFO
  /// single-request placement.
  std::vector<Grant> drain_batch_global();

  /// Advances the provisioner's clock (simulation or service seconds;
  /// monotonic — lower values are ignored).  The clock only timestamps wait-
  /// queue entries so `provisioner/queue_wait_time` can be observed when a
  /// queued request is finally served; callers that never set it record
  /// zero-length waits.
  void set_now(double now);
  double now() const { return now_; }

  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t rejected_count() const { return rejected_; }
  QueueDiscipline discipline() const { return discipline_; }
  const cluster::Cloud& cloud() const { return cloud_; }
  const PlacementPolicy& policy() const { return *policy_; }

 private:
  std::optional<Grant> try_place_and_grant(const cluster::Request& r);
  /// Appends to the wait queue and updates the queue-depth gauge.
  void enqueue(const cluster::Request& r);
  /// Index into queue_ of the next request under the discipline.
  std::size_t next_in_queue() const;

  /// A wait-queue entry: the request plus when it joined, so the wait time
  /// (provisioner/queue_wait_time) is known when it is finally served.
  struct Waiting {
    cluster::Request request;
    double enqueued_at = 0;
  };

  cluster::Cloud& cloud_;
  std::unique_ptr<PlacementPolicy> policy_;
  QueueDiscipline discipline_;
  std::deque<Waiting> queue_;  // in arrival order
  std::uint64_t rejected_ = 0;
  double now_ = 0;
};

}  // namespace vcopt::placement
