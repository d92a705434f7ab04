// The job-scheduling core shared by in-process and sharded execution.
//
// A BatchScheduler owns one batch's specs-to-results bookkeeping: it
// partitions the job indices into a *local* lane (executed on the
// calling engine's thread pool) and a *wire* lane (handed to the shard
// coordinator's worker processes), hands out local work to whichever
// thread asks first (pull-based stealing — assignment follows idleness,
// not a static partition), and collects results by index so the batch
// output stays in spec order whatever the scheduling was. When sharding
// is off every job lands in the local lane, so Engine::runBatch runs the
// identical core either way.
//
// Thread-safety: stealLocal() and complete() may be called concurrently
// from pool threads and the coordinator; the wire-lane index list is
// fixed at construction and read-only thereafter.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/job.hpp"

namespace pd::engine::shard {

class BatchScheduler {
public:
    /// Partitions `specs` into lanes. With `shardWireJobs` false (or for
    /// specs that cannot cross the wire — see wireSerializable) everything
    /// is local.
    BatchScheduler(const std::vector<JobSpec>& specs, bool shardWireJobs);

    /// Indices destined for worker processes, in spec order.
    [[nodiscard]] const std::vector<std::size_t>& wireJobs() const {
        return wire_;
    }

    /// Next unclaimed local job, or nullopt when the local lane is empty.
    [[nodiscard]] std::optional<std::size_t> stealLocal();

    /// Records the outcome of job `index` (either lane).
    void complete(std::size_t index, JobResult result);

    /// All results, in spec order. Call once, after every job completed.
    [[nodiscard]] std::vector<JobResult> take() &&;

private:
    std::mutex mutex_;
    std::vector<std::size_t> local_;
    std::size_t nextLocal_ = 0;  ///< cursor into local_: assignment is
                                 ///< spec-ordered, completion is not
    std::vector<std::size_t> wire_;
    std::vector<JobResult> results_;
};

}  // namespace pd::engine::shard
