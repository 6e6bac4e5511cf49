// vcbench — the vcopt benchmark: one binary, four workloads, driven only
// through the public API of vcopt::service, vcopt::cell, vcopt::placement
// and vcopt::mapreduce.
//
//   paper30_batched   Fig.-5 30-node cloud, flat serving, windows close on size
//   routed10k_fill    10k nodes, cell-routed serving, arrivals only
//   routed10k_churn   10k nodes, cell-routed serving, ~1 s exponential holds
//   jobs_wordcount    closed-loop run_jobs_sim, 128-split WordCount tenants
//
// Load model (service workloads): one generator thread replays a seeded
// Poisson schedule of arrivals and departures on the service's virtual clock
// (ClockMode::kVirtual) — an open loop, since the schedule never slows when
// decisions do.  Every call into the service is timed on the wall clock; a
// request's grant latency is the wall time of the call that produced its
// outcome.  An episode builds a fresh cloud and service for one seeded input
// stream, serves its whole schedule, then parses and replays its own
// journal.  After one warm-up episode, a run cycles through the workload's
// streams (at least one whole pass) until --seconds have passed; timings
// are medians (see main), quality metrics pool the first pass.
// vcbench/METRICS.md defines every metric on every workload.
//
// Usage: vcbench --workload W --seed N --seconds S --trace 0|1
//                [--trace-out FILE]
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer metrics (traced and untraced episodes alternate, and
// trace.overhead_ratio compares them).  The exit code is 1 when any
// correctness check fails, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cell/partition.h"
#include "cluster/cloud.h"
#include "cluster/topology.h"
#include "mapreduce/apps.h"
#include "mapreduce/jobs_sim.h"
#include "obs/metrics.h"
#include "placement/policy.h"
#include "service/journal.h"
#include "service/replay.h"
#include "service/service.h"
#include "spans.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace {

using namespace vcopt;
using Clock = std::chrono::steady_clock;
using vcbench::ScopedSpan;
using vcbench::SpanLog;

constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, p in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

/// Peak resident set of this process, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Heap bytes in use (small-chunk arenas plus mmapped blocks), in KB.  The
/// allocator keeps pages a finished episode freed, so an RSS delta would
/// miss what a later episode allocates into them; bytes in use do not.
double heap_in_use_kb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / 1024.0;
}

int capacity_total(const util::IntMatrix& m) {
  int total = 0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) total += m(i, j);
  }
  return total;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Correctness gate and result reporting.
// ---------------------------------------------------------------------------

struct Gate {
  bool ok = true;
  std::uint64_t failed_ops = 0;  ///< requests whose outcome broke a check

  void fail(const std::string& what) {
    if (ok) std::cerr << "vcbench: CORRECTNESS CHECK FAILED\n";
    ok = false;
    std::cerr << "  " << what << "\n";
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Request fates, counted over every attempted request of the run.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t full = 0;
  std::uint64_t partial = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t rejected = 0;  ///< empty or over-capacity requests

  void add(const Accounting& o) {
    attempted += o.attempted;
    full += o.full;
    partial += o.partial;
    abandoned += o.abandoned;
    shed += o.shed;
    queue_full += o.queue_full;
    rejected += o.rejected;
  }
};

/// What every episode, of any workload, reports.
struct Episode {
  bool traced = false;
  double work_s = 0;  ///< wall time of the measured phase (serve or sim)
  std::size_t decided = 0;
  Accounting acct;
  std::vector<double> grant_us;  ///< per decided request
  double replay_s = 0;           ///< parse + replay (jobs: record replay)
  double parse_s = 0;
  // Deterministic quality.
  double dc_sum = 0;
  double vms_granted = 0;
  double wait_sum = 0;     ///< virtual seconds, arrival -> decision
  double runtime_sum = 0;  ///< virtual seconds, decision -> release / finish
  std::size_t runtime_n = 0;
  std::size_t live_peak = 0;
  std::size_t fingerprint = 0;  ///< hash of the canonical outcome record
  // Per-layer (traced episodes).
  std::map<std::string, double> layer;
};

// ---------------------------------------------------------------------------
// Service workloads.
// ---------------------------------------------------------------------------

struct Arrival {
  double time = 0;
  cluster::Request request;
  double hold = kInf;  ///< virtual seconds the lease is held; kInf = forever
};

struct ServiceInputs {
  std::size_t racks = 0;
  std::size_t nodes_per_rack = 0;
  cluster::VmCatalog catalog = cluster::VmCatalog::ec2_default();
  util::IntMatrix capacity;
  std::vector<Arrival> arrivals;
  service::ServiceOptions options;
  std::string describe;
};

/// Grant percentiles are taken over blocks of this many consecutive
/// outcomes (so p99 has ten samples beyond it) and the median over blocks
/// is reported: a burst of stolen CPU then moves one block, not the result.
/// On routed10k_churn a block spans two 500-request streams, and its p99
/// falls among the members of the window that builds a stream's dense D
/// (about 1.4% of outcomes); the median over blocks keeps it there when
/// one pair of such windows is small.
constexpr std::size_t kLatencyBlock = 1000;

/// Poisson arrivals of 1-4 VMs per type with exponential holds.
std::vector<Arrival> poisson_arrivals(const cluster::VmCatalog& catalog,
                                      util::Rng& rng, std::size_t n,
                                      double rate, double mean_hold) {
  std::vector<Arrival> out;
  out.reserve(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(1.0 / rate);
    Arrival a;
    a.time = t;
    a.request = workload::random_request(catalog, rng, 1, 4, i + 1);
    a.hold = std::isinf(mean_hold) ? kInf : rng.exponential(mean_hold);
    out.push_back(std::move(a));
  }
  return out;
}

constexpr double kMeanRequestVms = 7.5;  // 3 types x uniform{1..4}

/// Seed of input stream `s` of a run seeded with `seed`.
std::uint64_t stream_seed(std::uint64_t seed, std::size_t s) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + s + 1;
  return util::splitmix64(state);
}

/// The Fig.-5 cloud of both 30-node workloads: one fixed random inventory
/// (perf_service's default scenario seed).  The seed varies the traffic; a
/// fresh 30-node inventory per seed would move DC and waiting by 10-30% on
/// its own and swamp the metrics.
constexpr std::uint64_t kFig5CloudSeed = 42;

/// paper30_batched: four request streams of 12500 on the Fig.-5 cloud.
std::vector<ServiceInputs> paper30_inputs(std::uint64_t seed) {
  std::vector<ServiceInputs> streams;
  const workload::SimScenario sc =
      workload::paper_sim_scenario(kFig5CloudSeed, workload::RequestScale::kBig);
  for (std::size_t s = 0; s < 4; ++s) {
    ServiceInputs in;
    in.racks = sc.topology.rack_count();
    in.nodes_per_rack = sc.topology.node_count() / in.racks;
    in.catalog = sc.catalog;
    in.capacity = sc.capacity;
    // 2000 arrivals per virtual second: eight arrive well inside the 10 ms
    // max_wait, so windows close on size.  Holds are sized so the offered
    // load keeps about 60% of this cloud's VM slots leased.
    const double rate = 2000;
    const double hold =
        0.6 * capacity_total(in.capacity) / (rate * kMeanRequestVms);
    util::Rng rng(stream_seed(seed, s) ^ 0x9a9e830ULL);
    in.arrivals = poisson_arrivals(in.catalog, rng, 12500, rate, hold);
    in.options.max_batch = 8;
    in.describe = "30 nodes flat, 12500 requests at 2000/s, mean hold " +
                  std::to_string(hold * 1e3) + " ms";
    streams.push_back(std::move(in));
  }
  return streams;
}

/// routed10k_fill: one 10k-node cloud and request stream.  routed10k_churn:
/// six short ones, each its own cloud: its tail latency hangs on a handful
/// of spill windows per stream, so a run needs several streams to be steady.
std::vector<ServiceInputs> routed10k_inputs(std::uint64_t seed, bool churn) {
  std::vector<ServiceInputs> streams;
  for (std::size_t s = 0; s < (churn ? 6 : 1); ++s) {
    ServiceInputs in;
    in.racks = 1000;
    in.nodes_per_rack = 10;
    const cluster::Topology topo =
        cluster::Topology::uniform(in.racks, in.nodes_per_rack);
    util::Rng rng(stream_seed(seed, s) ^ 0x10cULL);
    in.capacity = workload::random_inventory(topo, in.catalog, rng, 0, 3);
    // Fill: 4000 arrivals and no departures, ending near 67% of the slots.
    // Churn: 500 arrivals at 1000/s with ~1 s exponential holds, so grants
    // and releases interleave.
    in.arrivals = churn ? poisson_arrivals(in.catalog, rng, 500, 1000, 1.0)
                        : poisson_arrivals(in.catalog, rng, 4000, 1000, kInf);
    in.options.max_batch = 8;
    in.options.cell_size = 120;
    in.describe = std::string("10000 nodes routed (cell_size 120), ") +
                  (churn ? "500 requests at 1000/s, mean hold 1 s"
                         : "4000 requests at 1000/s, no departures");
    streams.push_back(std::move(in));
  }
  return streams;
}

struct ServiceRig {
  cluster::Cloud cloud;
  service::PlacementService svc;
  ServiceRig(const ServiceInputs& in, service::ServiceOptions options)
      : cloud(cluster::Topology::uniform(in.racks, in.nodes_per_rack),
              in.catalog, in.capacity),
        svc(cloud, std::move(options)) {}
};

/// Builds the cloud (fresh topology, so no lazily built state carries over
/// between episodes) and the service.  Returns the construction wall time.
std::unique_ptr<ServiceRig> build_service(const ServiceInputs& in,
                                          std::ostream* journal,
                                          SpanLog& spans, double& setup_s) {
  service::ServiceOptions options = in.options;
  options.journal = journal;
  ScopedSpan span(spans, "setup.service");
  const auto t0 = Clock::now();
  auto rig = std::make_unique<ServiceRig>(in, std::move(options));
  setup_s = seconds_since(t0);
  return rig;
}

struct Departure {
  double time = 0;
  std::uint64_t order = 0;  ///< tie-break: grant order
  cluster::LeaseId lease = 0;
  bool operator>(const Departure& o) const {
    return time != o.time ? time > o.time : order > o.order;
  }
};

/// Serves one input stream on a fresh cloud and service, then (unless
/// `with_replay` is false) parses and replays the episode's journal.
Episode run_service_episode(const ServiceInputs& in, bool traced,
                            bool with_replay,
                            const cell::CellPartition* partition,
                            SpanLog& spans, Gate& gate) {
  Episode ep;
  ep.traced = traced;
  spans.set_enabled(traced);
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(traced);

  std::ostringstream journal;
  double setup_s = 0;
  auto rig = build_service(in, &journal, spans, setup_s);
  service::PlacementService& svc = rig->svc;
  if (traced) reg.reset();  // count the serve phase only

  std::vector<double> submit_us, window_us, release_us;
  std::vector<service::Outcome> outcomes;
  outcomes.reserve(in.arrivals.size());
  std::vector<std::size_t> seq_arrival(in.arrivals.size() + 1, 0);
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  std::uint64_t grant_order = 0;
  std::size_t live = 0;
  double busy_s = 0;
  const double heap_start_kb = traced ? heap_in_use_kb() : 0;
  double heap_peak_kb = heap_start_kb;

  // Times one service call; returns its wall time in microseconds.
  auto timed = [&](const char* name, const auto& call) {
    ScopedSpan span(spans, name);
    const auto t0 = Clock::now();
    call();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    busy_s += us * 1e-6;
    return us;
  };
  // Collects the outcomes the last call produced and books them.
  auto collect = [&](double call_us, bool is_submit) {
    std::vector<service::Outcome> got;
    {
      ScopedSpan span(spans, "service.take_outcomes");
      got = svc.take_outcomes();
    }
    if (got.empty()) {
      if (is_submit) submit_us.push_back(call_us);
      return;
    }
    std::set<std::uint64_t> windows;
    for (const service::Outcome& o : got) windows.insert(o.window_id);
    for (std::size_t k = 0; k < windows.size(); ++k) {
      window_us.push_back(call_us / static_cast<double>(windows.size()));
    }
    for (service::Outcome& o : got) {
      ep.grant_us.push_back(call_us);
      if (o.seq == 0 || o.seq >= seq_arrival.size() ||
          seq_arrival[o.seq] == 0) {
        gate.fail("outcome for seq " + std::to_string(o.seq) +
                  " that was never accepted");
        ++gate.failed_ops;
        continue;
      }
      const Arrival& a = in.arrivals[seq_arrival[o.seq] - 1];
      if (service::has_lease(o.kind)) {
        ++live;
        if (!std::isinf(a.hold)) {
          departures.push({o.decide_time + a.hold, grant_order, o.lease});
        }
        ++grant_order;
      }
      outcomes.push_back(std::move(o));
    }
    if (live > ep.live_peak) {
      ep.live_peak = live;
      if (traced) heap_peak_kb = heap_in_use_kb();
    }
  };

  const auto serve_start = Clock::now();
  {
    ScopedSpan serve_span(spans, "episode.serve");
    std::size_t next = 0;
    while (next < in.arrivals.size() || !departures.empty()) {
      const bool depart =
          !departures.empty() && (next == in.arrivals.size() ||
                                  departures.top().time <= in.arrivals[next].time);
      const double t = depart ? departures.top().time : in.arrivals[next].time;
      collect(timed("service.advance_to", [&] { svc.advance_to(t); }), false);
      if (depart) {
        const cluster::LeaseId lease = departures.top().lease;
        departures.pop();
        release_us.push_back(
            timed("service.release", [&] { svc.release(lease); }));
        --live;
        continue;
      }
      const Arrival& a = in.arrivals[next++];
      ++ep.acct.attempted;
      service::SubmitReceipt receipt;
      const double us =
          timed("service.submit", [&] { receipt = svc.submit(a.request); });
      switch (receipt.admission) {
        case service::AdmissionStatus::kAccepted:
          if (receipt.seq >= seq_arrival.size()) {
            seq_arrival.resize(receipt.seq + 1, 0);
          }
          seq_arrival[receipt.seq] = next;  // 1-based arrival index
          break;
        case service::AdmissionStatus::kShed:
          ++ep.acct.shed;
          break;
        case service::AdmissionStatus::kQueueFull:
          ++ep.acct.queue_full;
          break;
      }
      collect(us, true);
    }
    collect(timed("service.flush", [&] { svc.flush(); }), false);
    timed("service.stop", [&] { svc.stop(); });
  }
  ep.work_s = seconds_since(serve_start);
  const double end_time = svc.now();
  const service::ServiceStats stats = svc.stats();

  // Book every outcome: accounting, quality, exact-once coverage.
  std::vector<std::uint8_t> seen(seq_arrival.size(), 0);
  for (const service::Outcome& o : outcomes) {
    if (seen[o.seq]++) {
      gate.fail("seq " + std::to_string(o.seq) + " has more than one outcome");
      ++gate.failed_ops;
    }
    const Arrival& a = in.arrivals[seq_arrival[o.seq] - 1];
    if (o.request_id != a.request.id() ||
        o.requested_vms != a.request.total_vms() ||
        o.granted_vms > o.requested_vms) {
      gate.fail("seq " + std::to_string(o.seq) +
                " outcome does not match its request");
      ++gate.failed_ops;
    }
    ++ep.decided;
    ep.wait_sum += o.decide_time - o.submit_time;
    switch (o.kind) {
      case service::OutcomeKind::kGranted:
      case service::OutcomeKind::kDegraded:
        if (o.granted_vms != o.requested_vms) {
          gate.fail("seq " + std::to_string(o.seq) + " full grant is short");
          ++gate.failed_ops;
        }
        ++ep.acct.full;
        break;
      case service::OutcomeKind::kPartial: ++ep.acct.partial; break;
      case service::OutcomeKind::kAbandoned: ++ep.acct.abandoned; break;
      case service::OutcomeKind::kShedDeadline: ++ep.acct.shed; break;
      case service::OutcomeKind::kRejectedEmpty:
      case service::OutcomeKind::kRejectedOverCapacity:
        ++ep.acct.rejected;
        break;
    }
    if (service::has_lease(o.kind)) {
      ep.dc_sum += o.distance;
      ep.vms_granted += o.granted_vms;
      const double release =
          std::isinf(a.hold) ? end_time : std::min(end_time, o.decide_time + a.hold);
      ep.runtime_sum += std::max(0.0, release - o.decide_time);
      ++ep.runtime_n;
    }
  }
  for (std::size_t s = 1; s < seq_arrival.size(); ++s) {
    if (seq_arrival[s] != 0 && seen[s] != 1) {
      gate.fail("accepted seq " + std::to_string(s) + " has " +
                std::to_string(seen[s]) + " outcomes");
      ++gate.failed_ops;
    }
  }

  // Live DC summed in decision order (window, then dispatch = seq order
  // under FIFO) — the order replay_journal sums in, so the totals are
  // comparable exactly.
  std::vector<const service::Outcome*> by_decision;
  for (const service::Outcome& o : outcomes) {
    if (service::has_lease(o.kind)) by_decision.push_back(&o);
  }
  std::sort(by_decision.begin(), by_decision.end(),
            [](const service::Outcome* a, const service::Outcome* b) {
              return a->window_id != b->window_id ? a->window_id < b->window_id
                                                  : a->seq < b->seq;
            });
  double live_dc = 0;
  for (const service::Outcome* o : by_decision) live_dc += o->distance;

  if (traced) {
    auto& L = ep.layer;
    L["service.submit_us.p50"] = quantile(submit_us, 0.5);
    L["service.submit_us.p99"] = quantile(submit_us, 0.99);
    L["service.window_us.p50"] = quantile(window_us, 0.5);
    L["service.window_us.p99"] = quantile(window_us, 0.99);
    L["service.release_us.p50"] = quantile(release_us, 0.5);
    L["service.busy_share"] = ratio(busy_s, ep.work_s);
    L["service.windows"] = static_cast<double>(stats.windows);
    L["service.window_size_mean"] =
        ratio(static_cast<double>(stats.decided), static_cast<double>(stats.windows));
    L["service.queue_full"] = static_cast<double>(stats.queue_full);
    L["service.shed"] = static_cast<double>(stats.shed);
    L["journal.bytes_per_decision"] =
        ratio(static_cast<double>(journal.tellp()), static_cast<double>(ep.decided));
    const double windows = static_cast<double>(stats.windows);
    const double spills = static_cast<double>(counter("cell/window_spills"));
    L["cell.window_spills"] = spills;
    L["cell.spill_ratio"] = ratio(spills, windows);
    L["cell.pruned_per_route"] =
        ratio(static_cast<double>(counter("cell/pruned")),
              static_cast<double>(counter("cell/routed")));
    L["cell.sketch_updates_per_decision"] =
        ratio(static_cast<double>(counter("cell/sketch_updates")),
              static_cast<double>(ep.decided));
    L["placement.candidates_pruned_ratio"] =
        ratio(static_cast<double>(counter("placement/candidates_pruned")),
              static_cast<double>(counter("placement/candidates_evaluated")));
    L["placement.transfers_applied_ratio"] =
        ratio(static_cast<double>(counter("placement/transfers_applied")),
              static_cast<double>(counter("placement/transfers_attempted")));
    L["provisioner.ladder_partial"] =
        static_cast<double>(counter("provisioner/ladder_partial"));
    L["provisioner.ladder_abandoned"] =
        static_cast<double>(counter("provisioner/ladder_abandoned"));
    L["cluster.live_leases_peak"] = static_cast<double>(ep.live_peak);
    L["cluster.rss_growth_per_lease_kb"] =
        ratio(heap_peak_kb - heap_start_kb, static_cast<double>(ep.live_peak));
  }
  rig.reset();  // free the live cloud before replay builds its own
  const std::string live_grants = service::grant_stream(outcomes);
  ep.fingerprint = std::hash<std::string>{}(live_grants);
  if (!with_replay) return ep;

  // Replay the run's own journal against a fresh cloud.
  const std::string journal_text = journal.str();
  journal.str({});
  std::vector<service::JournalRecord> records;
  service::ReplayResult replay;
  {
    std::istringstream in_stream(journal_text);
    ScopedSpan span(spans, "replay.parse_journal");
    const auto t0 = Clock::now();
    records = service::parse_journal(in_stream, "vcbench");
    ep.parse_s = seconds_since(t0);
  }
  {
    cluster::Cloud cloud(cluster::Topology::uniform(in.racks, in.nodes_per_rack),
                         in.catalog, in.capacity);
    ScopedSpan span(spans, "replay.replay_journal");
    const auto t0 = Clock::now();
    replay = service::replay_journal(records, cloud, in.options);
    ep.replay_s = ep.parse_s + seconds_since(t0);
  }
  if (traced) {
    ep.layer["replay.parse_s"] = ep.parse_s;
    ep.layer["replay.replay_s"] = ep.replay_s - ep.parse_s;
  }

  if (replay.grants != live_grants) {
    gate.fail("replayed grant stream differs from the live run (" +
              std::to_string(replay.grants.size()) + " vs " +
              std::to_string(live_grants.size()) + " bytes)");
  }
  if (replay.total_distance != live_dc) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "summed outcome DC %.17g != replay total_distance %.17g",
                  live_dc, replay.total_distance);
    gate.fail(buf);
  }

  if (traced && partition != nullptr) {
    // Lease-carrying outcomes whose central node lies in the cell the
    // window was routed to (the router's winner).
    std::map<std::uint64_t, std::size_t> window_cell;
    for (const service::JournalRecord& r : records) {
      if (r.type == service::RecordType::kWindow) {
        window_cell[r.window_id] = r.cell;
      }
    }
    std::size_t leases = 0, in_winner = 0;
    for (const service::Outcome* o : by_decision) {
      ++leases;
      const std::size_t c = window_cell[o->window_id];
      if (c != service::kNoCell && partition->cell_of_node(o->central) == c) {
        ++in_winner;
      }
    }
    ep.layer["cell.placed_in_winner_ratio"] =
        ratio(static_cast<double>(in_winner), static_cast<double>(leases));
  }
  return ep;
}

// ---------------------------------------------------------------------------
// Jobs workload.
// ---------------------------------------------------------------------------

struct JobsInputs {
  workload::SimScenario scenario;
  std::vector<mapreduce::JobRequest> tenants;
  std::string describe;
};

constexpr int kWordcountSplits = 128;
constexpr double kJobsLoad = 0.75;
constexpr std::size_t kJobStreams = 32;
constexpr std::size_t kJobTenants = 1000;

/// jobs_wordcount: 32 tenant streams of 1000 on the Fig.-5 cloud.  Mean
/// wait swings widely with the arrival draw, so quality pools the streams.
std::vector<JobsInputs> jobs_inputs(std::uint64_t seed) {
  const workload::SimScenario sc =
      workload::paper_sim_scenario(kFig5CloudSeed, workload::RequestScale::kBig);
  // Tenants want 1-4 VMs per type and run a 128-split WordCount.  Arrivals
  // are Poisson at a rate that offers 75% of the cloud's scarcest VM type,
  // so tenants queue at peaks but the backlog does not grow.
  int scarcest = std::numeric_limits<int>::max();
  for (std::size_t j = 0; j < sc.capacity.cols(); ++j) {
    int col = 0;
    for (std::size_t i = 0; i < sc.capacity.rows(); ++i) col += sc.capacity(i, j);
    scarcest = std::min(scarcest, col);
  }
  const double mean_vms_per_type = 2.5;
  const double mean_runtime_s = 22;  // 128-split WordCount on ~7.5 VMs
  const double rate =
      kJobsLoad * scarcest / (mean_vms_per_type * mean_runtime_s);
  const double horizon = static_cast<double>(kJobTenants) / rate;

  std::vector<JobsInputs> streams;
  for (std::size_t s = 0; s < kJobStreams; ++s) {
    JobsInputs in{sc, {}, {}};
    // A Poisson process conditioned on its count: the arrival instants are
    // uniform over the horizon, so every stream offers exactly the intended
    // load (an unconditioned stream's realised rate alone moves its mean
    // wait by 10% or more).
    util::Rng rng(stream_seed(seed, s) ^ 0x70b5ULL);
    std::vector<double> arrival(kJobTenants);
    for (double& t : arrival) t = rng.uniform(0, horizon);
    std::sort(arrival.begin(), arrival.end());
    for (std::uint64_t i = 0; i < kJobTenants; ++i) {
      mapreduce::JobRequest jr;
      jr.request = workload::random_request(sc.catalog, rng, 1, 4, i + 1);
      jr.job = mapreduce::wordcount(kWordcountSplits * 64.0e6);
      jr.arrival_time = arrival[i];
      in.tenants.push_back(std::move(jr));
    }
    in.describe = "30 nodes, " + std::to_string(kJobTenants) +
                  " WordCount tenants at " + std::to_string(rate) +
                  "/s, online-heuristic";
    streams.push_back(std::move(in));
  }
  return streams;
}

/// Every place() call the jobs simulation makes, timed.
struct PlaceLog {
  std::vector<double> call_us;
  std::vector<double> grant_us;
  std::map<std::uint64_t, placement::Placement> granted;  ///< by request id
};

/// Bench-owned wrapper handed to run_jobs_sim: times and records each call
/// into the wrapped policy.
class TimedPolicy final : public placement::PlacementPolicy {
 public:
  TimedPolicy(std::unique_ptr<placement::PlacementPolicy> inner, PlaceLog& log,
              SpanLog& spans)
      : inner_(std::move(inner)), log_(log), spans_(spans) {}

  std::optional<placement::Placement> place(
      const cluster::Request& request, const util::IntMatrix& remaining,
      const cluster::Topology& topology) override {
    std::optional<placement::Placement> placed;
    double us = 0;
    {
      ScopedSpan span(spans_, "placement.place");
      const auto t0 = Clock::now();
      placed = inner_->place(request, remaining, topology);
      us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    }
    log_.call_us.push_back(us);
    if (placed) {
      log_.grant_us.push_back(us);
      log_.granted[request.id()] = *placed;
    }
    return placed;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<placement::PlacementPolicy> inner_;
  PlaceLog& log_;
  SpanLog& spans_;
};

Episode run_jobs_episode(const JobsInputs& in, std::uint64_t seed,
                         bool traced, SpanLog& spans, Gate& gate) {
  const std::vector<mapreduce::JobRequest>& tenants = in.tenants;
  Episode ep;
  ep.traced = traced;
  spans.set_enabled(traced);
  auto& reg = obs::MetricsRegistry::global();
  reg.set_enabled(traced);
  if (traced) reg.reset();
  const std::size_t first_span = spans.spans().size();

  const workload::SimScenario& sc = in.scenario;
  PlaceLog log;
  std::optional<cluster::Cloud> cloud;
  std::unique_ptr<TimedPolicy> policy;
  {
    ScopedSpan span(spans, "setup.jobs");
    cloud.emplace(sc.topology, sc.catalog, sc.capacity);
    policy = std::make_unique<TimedPolicy>(
        placement::make_policy("online-heuristic"), log, spans);
  }

  mapreduce::JobsSimResult res;
  const auto t0 = Clock::now();
  {
    ScopedSpan span(spans, "mapreduce.run_jobs_sim");
    res = mapreduce::run_jobs_sim(*cloud, std::move(policy), tenants, seed);
  }
  ep.work_s = seconds_since(t0);

  // Records: one per served tenant, arrival <= granted <= finished.
  std::map<std::uint64_t, const mapreduce::JobRequest*> tenant;
  for (const mapreduce::JobRequest& t : tenants) tenant[t.request.id()] = &t;
  ep.acct.attempted = tenants.size();
  ep.acct.full = res.jobs.size();
  ep.acct.rejected = res.rejected;
  ep.acct.abandoned = res.unserved;
  if (res.jobs.size() + res.rejected + res.unserved != tenants.size()) {
    gate.fail("jobs: " + std::to_string(res.jobs.size()) + " records + " +
              std::to_string(res.rejected + res.unserved) +
              " unserved != tenants");
  }
  std::set<std::uint64_t> seen;
  std::ostringstream canon;
  for (const mapreduce::JobRecord& j : res.jobs) {
    const auto it = tenant.find(j.request_id);
    const auto placed = log.granted.find(j.request_id);
    const bool ordered = j.arrival <= j.granted && j.granted <= j.finished;
    if (it == tenant.end() || placed == log.granted.end() || !ordered ||
        !seen.insert(j.request_id).second ||
        j.arrival != it->second->arrival_time ||
        j.distance != placed->second.distance) {
      gate.fail("jobs: record for request " + std::to_string(j.request_id) +
                " is inconsistent (arrival " + std::to_string(j.arrival) +
                ", granted " + std::to_string(j.granted) + ", finished " +
                std::to_string(j.finished) + ")");
      ++gate.failed_ops;
      continue;
    }
    ++ep.decided;
    ep.dc_sum += j.distance;
    ep.vms_granted += placed->second.allocation.total_vms();
    ep.wait_sum += j.wait();
    ep.runtime_sum += j.job_runtime;
    ++ep.runtime_n;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%llu %.17g %.17g %.17g\n",
                  static_cast<unsigned long long>(j.request_id), j.granted,
                  j.finished, j.distance);
    canon << buf;
  }
  ep.fingerprint = std::hash<std::string>{}(canon.str());
  ep.grant_us = log.grant_us;

  // Replay the decision record against fresh books: every grant in time
  // order (releases first at equal instants) must fit, and its DC must
  // recompute to the recorded value.
  struct Event {
    double time;
    int kind;  // 0 = release, 1 = grant
    std::size_t job;
  };
  std::vector<Event> events;
  std::vector<const cluster::Request*> job_request(res.jobs.size(), nullptr);
  std::vector<const cluster::Allocation*> job_alloc(res.jobs.size(), nullptr);
  for (std::size_t i = 0; i < res.jobs.size(); ++i) {
    const auto t = tenant.find(res.jobs[i].request_id);
    const auto placed = log.granted.find(res.jobs[i].request_id);
    if (t == tenant.end() || placed == log.granted.end()) continue;
    job_request[i] = &t->second->request;
    job_alloc[i] = &placed->second.allocation;
    events.push_back({res.jobs[i].granted, 1, i});
    events.push_back({res.jobs[i].finished, 0, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.job < b.job;
  });
  // One replay takes a few milliseconds, so it repeats (fresh books each
  // time) for at least 20 ms and reports the median.
  std::vector<double> replay_samples;
  const auto replay_start = Clock::now();
  while (gate.ok && (replay_samples.size() < 3 ||
                     seconds_since(replay_start) < 0.02)) {
    cluster::Cloud books(sc.topology, sc.catalog, sc.capacity);
    std::vector<cluster::LeaseId> lease(res.jobs.size(), 0);
    std::size_t live = 0;
    ScopedSpan span(spans, "replay.jobs_record");
    const auto r0 = Clock::now();
    try {
      for (const Event& e : events) {
        if (e.kind == 1) {
          lease[e.job] = books.grant(*job_request[e.job], *job_alloc[e.job]);
          ep.live_peak = std::max(ep.live_peak, ++live);
        } else {
          books.release(lease[e.job]);
          --live;
        }
      }
    } catch (const std::exception& ex) {
      gate.fail(std::string("jobs: recorded grants do not replay: ") +
                ex.what());
    }
    replay_samples.push_back(seconds_since(r0));
  }
  ep.replay_s = median(replay_samples);
  const util::DoubleMatrix& dist = sc.topology.distance_matrix();
  for (const mapreduce::JobRecord& j : res.jobs) {
    const auto placed = log.granted.find(j.request_id);
    if (placed == log.granted.end()) continue;
    const double dc = placed->second.allocation.best_central(dist).distance;
    if (std::abs(dc - j.distance) > 1e-9 * std::max(1.0, std::abs(dc))) {
      gate.fail("jobs: request " + std::to_string(j.request_id) +
                " DC recomputes to " + std::to_string(dc) + ", recorded " +
                std::to_string(j.distance));
    }
  }

  if (traced) {
    auto& L = ep.layer;
    const double place_s = sum(log.call_us) * 1e-6;
    const double sim_s = spans.self_seconds("mapreduce.run_jobs_sim", first_span);
    L["placement.place_us.p50"] = quantile(log.call_us, 0.5);
    L["placement.place_us.p99"] = quantile(log.call_us, 0.99);
    L["placement.share"] = ratio(place_s, ep.work_s);
    L["placement.candidates_pruned_ratio"] =
        ratio(static_cast<double>(counter("placement/candidates_pruned")),
              static_cast<double>(counter("placement/candidates_evaluated")));
    L["mapreduce.sim_s"] = sim_s;
    L["mapreduce.maps_per_s"] =
        ratio(static_cast<double>(counter("mapreduce/maps_run")), sim_s);
    L["cluster.live_leases_peak"] = static_cast<double>(ep.live_peak);
    L["replay.replay_s"] = ep.replay_s;
  }
  return ep;
}

// ---------------------------------------------------------------------------
// Runs: set-up timing, repeated episodes, aggregation.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

const char* const kWorkloads[] = {"paper30_batched", "routed10k_fill",
                                  "routed10k_churn", "jobs_wordcount"};

struct LayerMetric {
  const char* name;
  const char* unit;
};

const LayerMetric kPerLayer[] = {
    {"service.submit_us.p50", "us"},
    {"service.submit_us.p99", "us"},
    {"service.window_us.p50", "us"},
    {"service.window_us.p99", "us"},
    {"service.release_us.p50", "us"},
    {"service.busy_share", "ratio"},
    {"service.windows", "count"},
    {"service.window_size_mean", "count"},
    {"service.queue_full", "count"},
    {"service.shed", "count"},
    {"journal.bytes_per_decision", "B"},
    {"replay.parse_s", "s"},
    {"replay.replay_s", "s"},
    {"cell.spill_ratio", "ratio"},
    {"cell.window_spills", "count"},
    {"cell.pruned_per_route", "count"},
    {"cell.placed_in_winner_ratio", "ratio"},
    {"cell.sketch_updates_per_decision", "count"},
    {"placement.candidates_pruned_ratio", "ratio"},
    {"placement.transfers_applied_ratio", "ratio"},
    {"provisioner.ladder_partial", "count"},
    {"provisioner.ladder_abandoned", "count"},
    {"placement.place_us.p50", "us"},
    {"placement.place_us.p99", "us"},
    {"placement.share", "ratio"},
    {"mapreduce.sim_s", "s"},
    {"mapreduce.maps_per_s", "1/s"},
    {"cluster.live_leases_peak", "count"},
    {"cluster.rss_growth_per_lease_kb", "KB"},
    {"trace.overhead_ratio", "ratio"},
};

/// Time of one set-up: the median over batches of the mean within a batch.
/// `build()` constructs one set-up, returns the wall time of the
/// construction alone, and tears it down untimed, so every sample starts
/// from the same allocator state (holding many set-ups alive at once makes
/// the heap grow and trim).  Single samples of a microsecond-scale set-up
/// are bimodal, so a batch (about 10 ms, at most 100 set-ups) is averaged
/// before the median is taken.  Repeats for `budget_s`, at least 5 batches.
double measure_setup(const std::function<double()>& build, double budget_s) {
  const double first = build();
  const std::size_t batch = std::clamp<std::size_t>(
      static_cast<std::size_t>(0.01 / std::max(first, 1e-9)), 1, 100);
  std::vector<double> batch_means;
  const auto t0 = Clock::now();
  while (batch_means.size() < 5 || seconds_since(t0) < budget_s) {
    double total = 0;
    for (std::size_t i = 0; i < batch; ++i) total += build();
    batch_means.push_back(total / static_cast<double>(batch));
  }
  return median(batch_means);
}

void print_json_metrics(std::ostream& out, const std::vector<Metric>& ms) {
  out << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  out << "}";
}

int usage() {
  std::cerr << "usage: vcbench --workload {paper30_batched|routed10k_fill|"
               "routed10k_churn|jobs_wordcount} --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) return usage();
  const Args& args = *parsed;
  // An inline pool (VCOPT_THREADS=1 starts no workers): every placement
  // scan runs on the generator thread.  With the default pool (one worker
  // per core), each in-cell scan of 64 or more candidates fans out to every
  // core and waits for the slowest, so on a shared host its latency follows
  // how promptly the other cores are scheduled, not the code.  Decisions
  // are identical for any pool size, so no quality metric changes.
  setenv("VCOPT_THREADS", "1", 1);
  // Freed memory stays in the process, as in a long-running service: no
  // block is mmapped (so none is unmapped when freed) and the heap is never
  // trimmed.  Episodes after the warm-up then reuse pages it faulted in.
  // With the defaults every episode maps and faults in its dense D (800 MB
  // on routed10k_churn) afresh; that kernel time follows the host's memory
  // load and was about half of churn's serve time.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const bool jobs = args.workload == "jobs_wordcount";

  // Inputs come from the seed alone; generating them is not timed.
  std::vector<ServiceInputs> svc_in;
  std::vector<JobsInputs> jobs_in;
  if (args.workload == "paper30_batched") {
    svc_in = paper30_inputs(args.seed);
  } else if (args.workload == "routed10k_fill") {
    svc_in = routed10k_inputs(args.seed, /*churn=*/false);
  } else if (args.workload == "routed10k_churn") {
    svc_in = routed10k_inputs(args.seed, /*churn=*/true);
  } else {
    jobs_in = jobs_inputs(args.seed);
  }
  const std::size_t streams = jobs ? jobs_in.size() : svc_in.size();
  std::optional<cell::CellPartition> partition;
  if (!jobs && svc_in.front().options.cell_mode()) {
    // Every stream shares the topology, hence the partition.
    partition.emplace(cluster::Topology::uniform(svc_in.front().racks,
                                                 svc_in.front().nodes_per_rack),
                      cell::CellPartitionOptions{0, svc_in.front().options.cell_size});
  }
  std::cout << "vcbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " pool_workers=" << util::ThreadPool::global().size() << "\n"
            << "inputs: " << streams << " stream(s) of "
            << (jobs ? jobs_in.front().describe : svc_in.front().describe)
            << "\n";

  SpanLog spans;
  Gate gate;
  const auto run_start = Clock::now();

  // Set-up: the Cloud plus the PlacementService (partition, directory,
  // capacity sums) or the placement policy, built repeatedly.  Untraced:
  // a microsecond set-up repeats a million times (episodes span their own).
  const double setup_budget = std::min(1.0, 0.1 * args.seconds);
  const double setup_s =
      jobs ? measure_setup(
                 [&] {
                   const workload::SimScenario& sc = jobs_in.front().scenario;
                   const auto t0 = Clock::now();
                   cluster::Cloud cloud(sc.topology, sc.catalog, sc.capacity);
                   auto policy = placement::make_policy("online-heuristic");
                   return seconds_since(t0);
                 },
                 setup_budget)
           : measure_setup(
                 [&] {
                   std::ostringstream sink;
                   double s = 0;
                   build_service(svc_in.front(), &sink, spans, s);
                   return s;
                 },
                 setup_budget);

  // Episodes, cycling through the input streams until the budget is spent:
  // at least one whole pass, and three when a pass is shorter than three
  // episodes, so timing medians have three samples.  A traced run plays
  // every stream twice in a row, traced then untraced, so
  // trace.overhead_ratio compares equal work.
  std::vector<Episode> episodes;
  std::vector<std::optional<std::pair<std::size_t, std::size_t>>> stream_fp(
      streams);
  const std::size_t per_stream = args.trace ? 2 : 1;
  // A warm-up episode on stream 1 first: the first pass through fresh heap
  // memory pays page faults no later episode does.  It is checked like any
  // other (it is episode 0 below) and enters no metric but peak_rss_mb.
  {
    const Episode warm =
        jobs ? run_jobs_episode(jobs_in.front(), args.seed, false, spans, gate)
             : run_service_episode(svc_in.front(), false, /*with_replay=*/false,
                                   partition ? &*partition : nullptr, spans,
                                   gate);
    stream_fp[0] = {std::size_t{0}, warm.fingerprint};
    std::cout << "warm-up (stream 1): " << warm.work_s << " s\n";
  }
  // Peak RSS of serving one stream from a fresh heap.  Later episodes can
  // only raise it by how the retained heap fragments.
  const double rss_mb = peak_rss_mb();
  const std::size_t pass_len = streams * per_stream;
  const std::size_t min_episodes = pass_len >= 3 ? pass_len : 3 * pass_len;
  while (episodes.size() < min_episodes ||
         seconds_since(run_start) < args.seconds ||
         episodes.size() % per_stream != 0) {
    const std::size_t e = episodes.size();
    const std::size_t stream = (e / per_stream) % streams;
    const bool traced = args.trace && e % 2 == 0;
    Episode ep = jobs ? run_jobs_episode(jobs_in[stream], args.seed, traced,
                                         spans, gate)
                      : run_service_episode(svc_in[stream], traced, true,
                                            partition ? &*partition : nullptr,
                                            spans, gate);
    // Same stream, same decisions: traced or not, first pass or later.
    if (!stream_fp[stream]) {
      stream_fp[stream] = {e + 1, ep.fingerprint};
    } else if (stream_fp[stream]->second != ep.fingerprint) {
      gate.fail("episode " + std::to_string(e + 1) + " decided differently "
                "from episode " + std::to_string(stream_fp[stream]->first) +
                " on the same inputs");
    }
    std::cout << "episode " << e + 1 << " (stream " << stream + 1
              << (traced ? ", traced" : "") << "): " << ep.work_s << " s, "
              << ep.decided << " decided, replay " << ep.replay_s << " s\n";
    episodes.push_back(std::move(ep));
    if (!gate.ok) break;
  }
  spans.set_enabled(false);
  obs::MetricsRegistry::global().set_enabled(false);

  // Failure accounting over every episode.
  Accounting acct;
  for (const Episode& ep : episodes) acct.add(ep.acct);
  std::cout << "requests: attempted " << acct.attempted << ", full "
            << acct.full << ", partial " << acct.partial << ", abandoned "
            << acct.abandoned << ", shed " << acct.shed << ", queue_full "
            << acct.queue_full << ", rejected " << acct.rejected << "\n";

  // Quality, pooled over the first pass of the streams.
  Episode pass;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    if (e / per_stream >= streams || e % per_stream != 0) continue;
    const Episode& ep = episodes[e];
    pass.acct.add(ep.acct);
    pass.decided += ep.decided;
    pass.dc_sum += ep.dc_sum;
    pass.vms_granted += ep.vms_granted;
    pass.wait_sum += ep.wait_sum;
    pass.runtime_sum += ep.runtime_sum;
    pass.runtime_n += ep.runtime_n;
  }
  // Timings.  Rates: the median over untraced episodes of each episode's
  // rate, so one episode slowed by a noisy neighbour does not move the
  // result.  Percentiles: the median over latency blocks (see
  // kLatencyBlock) of the untraced episodes' outcomes, in order.
  std::vector<double> grant_us;
  for (const Episode& ep : episodes) {
    if (!ep.traced) grant_us.insert(grant_us.end(), ep.grant_us.begin(), ep.grant_us.end());
  }
  const std::size_t block = std::min(grant_us.size(), kLatencyBlock);
  auto rate = [&](const auto& f) {
    std::vector<double> xs;
    for (const Episode& ep : episodes) {
      if (!ep.traced) xs.push_back(f(ep));
    }
    return median(xs);
  };
  auto grant_quantile = [&](double p) {
    std::vector<double> xs;
    for (std::size_t i = 0; block > 0 && i + block <= grant_us.size();
         i += block) {
      xs.push_back(quantile({grant_us.begin() + static_cast<std::ptrdiff_t>(i),
                             grant_us.begin() + static_cast<std::ptrdiff_t>(i + block)},
                            p));
    }
    return median(xs);
  };
  auto total_work = [&](bool traced) {
    double t = 0;
    for (const Episode& ep : episodes) {
      if (ep.traced == traced) t += ep.work_s;
    }
    return t;
  };

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  };
  if (!args.trace) {
    std::cout << "grant latency: " << grant_us.size() << " samples in blocks of "
              << block << "\n";
    add("decisions_per_s", rate([](const Episode& ep) {
          return ratio(static_cast<double>(ep.decided), ep.work_s);
        }),
        "1/s");
    add("grant_p50_us", grant_quantile(0.5), "us");
    add("grant_p99_us", grant_quantile(0.99), "us");
    add("replay_decisions_per_s", rate([](const Episode& ep) {
          return ratio(static_cast<double>(ep.decided), ep.replay_s);
        }),
        "1/s");
    add("mean_dc_per_vm", ratio(pass.dc_sum, pass.vms_granted), "DC/VM");
    add("full_grant_ratio",
        ratio(static_cast<double>(pass.acct.full),
              static_cast<double>(pass.acct.attempted)),
        "ratio");
    add("jobs_per_s", rate([](const Episode& ep) {
          return ratio(static_cast<double>(ep.acct.attempted), ep.work_s);
        }),
        "1/s");
    add("mean_job_runtime_s",
        ratio(pass.runtime_sum, static_cast<double>(pass.runtime_n)), "s");
    add("mean_job_wait_s",
        ratio(pass.wait_sum, static_cast<double>(pass.decided)), "s");
    add("peak_rss_mb", rss_mb, "MB");
    add("setup_s", setup_s, "s");
  } else {
    // Per-layer values: median over traced episodes of each episode's value
    // (0 where a layer takes no part in the workload).
    for (const LayerMetric& m : kPerLayer) {
      std::vector<double> xs;
      for (const Episode& ep : episodes) {
        if (!ep.traced) continue;
        const auto it = ep.layer.find(m.name);
        xs.push_back(it == ep.layer.end() ? 0.0 : it->second);
      }
      const bool overhead = std::string(m.name) == "trace.overhead_ratio";
      add(m.name,
          overhead ? ratio(total_work(true), total_work(false)) : median(xs),
          m.unit);
    }

    std::cout << "self time by span (all traced episodes):\n";
    char buf[160];
    for (const vcbench::SelfTime& t : spans.self_times()) {
      std::snprintf(buf, sizeof buf,
                    "  %-28s %9llu calls %10.4f s total %10.4f s self\n",
                    t.name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_s, t.self_s);
      std::cout << buf;
    }
    if (!args.trace_out.empty()) {
      if (spans.write_chrome_trace(args.trace_out)) {
        std::cout << "spans written to " << args.trace_out << "\n";
      } else {
        std::cerr << "vcbench: cannot write " << args.trace_out << "\n";
      }
    }
  }

  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (gate.ok ? "true" : "false")
            << ", \"attempted\": " << acct.attempted
            << ", \"failed\": " << gate.failed_ops << ", \"metrics\": ";
  print_json_metrics(std::cout, metrics);
  std::cout << "}" << std::endl;
  return gate.ok ? 0 : 1;
}
