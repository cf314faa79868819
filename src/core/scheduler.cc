#include "core/scheduler.h"

#include <iterator>

#include "common/log.h"

namespace gfaas::core {

namespace {

// A dispatch is a false miss when the target GPU does not hold the model
// but some other GPU does (§V-D).
bool is_false_miss(const SchedulingContext& ctx, ModelId model, GpuId gpu) {
  if (ctx.cache().is_cached(gpu, model)) return false;
  return ctx.cache().cached_anywhere(model);
}

// Earliest idle holder of `model` in the idle frequency ordering: the
// idle holder maximizing (dispatch_count, lowest id). Walks the words of
// holders & idle, so it visits only the model's idle holders (§VI), never
// the idle set or the busy holders.
GpuId best_idle_holder(const SchedulingContext& ctx, ModelId model, GpuId exclude) {
  const GpuBits holders = ctx.cache().holders(model);
  const GpuBits idle = ctx.idle_gpu_bits();
  const GpuLoad* loads = ctx.gpu_loads();
  GpuId best;
  std::int64_t best_count = -1;
  for_each_gpu(
      holders.word_count(),
      [&holders, &idle](std::size_t i) { return holders.word(i) & idle.word(i); },
      [&](GpuId gpu) {
        if (gpu == exclude) return;
        // Ids ascend, so strict > keeps the lowest id on ties.
        const std::int64_t count = loads[gpu.value()].dispatches;
        if (count > best_count) {
          best_count = count;
          best = gpu;
        }
      });
  return best;
}

}  // namespace

std::string policy_display_name(PolicyName name) {
  switch (name) {
    case PolicyName::kLb: return "LB";
    case PolicyName::kLalb: return "LALB";
    case PolicyName::kLalbO3: return "LALBO3";
  }
  return "unknown";
}

std::unique_ptr<SchedulingPolicy> make_scheduler(PolicyName name, int o3_limit) {
  switch (name) {
    case PolicyName::kLb: return std::make_unique<LbScheduler>();
    case PolicyName::kLalb: return std::make_unique<LalbScheduler>(0);
    case PolicyName::kLalbO3: return std::make_unique<LalbScheduler>(o3_limit);
  }
  GFAAS_CHECK(false) << "unknown policy";
  return nullptr;
}

void LbScheduler::schedule(SchedulingContext& ctx) {
  // "Simply dispatches the request at the head of the global queue
  // whenever a GPU becomes idle." No locality awareness, no local queues.
  while (true) {
    const Request* head = ctx.global_queue().head();
    if (head == nullptr) return;
    // Least-frequently-dispatched idle GPU = plain load balancing.
    const GpuId target = ctx.last_idle_gpu();
    if (!target.valid()) return;
    ctx.dispatch_from_global(head->id, target,
                             is_false_miss(ctx, head->model, target));
  }
}

LalbScheduler::LalbScheduler(int o3_limit) : o3_limit_(o3_limit) {
  GFAAS_CHECK(o3_limit >= 0);
}

std::string LalbScheduler::name() const {
  return o3_limit_ == 0 ? "LALB" : "LALBO3";
}

void LalbScheduler::schedule(SchedulingContext& ctx) {
  if (o3_limit_ == 0) {
    schedule_in_order(ctx);
  } else {
    schedule_out_of_order(ctx);
  }
}

bool LalbScheduler::locality_load_balance(SchedulingContext& ctx, GpuId gpu_i,
                                          RequestId request) {
  // Algorithm 2: place `request` considering locality and load balance.
  const Request* req = ctx.global_queue().find(request);
  GFAAS_CHECK(req != nullptr);
  const ModelId model = req->model;

  // Every branch below walks only the model's holders (the cache's
  // model -> GPU bitset, read in place: no action runs before its last
  // read), never the idle set (§VI).
  if (!ctx.cache().cached_anywhere(model)) {
    // Line 1-3: not cached anywhere -> plain cache miss on gpu_i.
    ctx.dispatch_from_global(request, gpu_i, /*false_miss=*/false);
    return true;
  }

  // Line 4-6: cached on another idle GPU -> hit there; gpu_i stays idle.
  const GpuId idle_holder = best_idle_holder(ctx, model, /*exclude=*/gpu_i);
  if (idle_holder.valid()) {
    ctx.dispatch_from_global(request, idle_holder, /*false_miss=*/false);
    return false;
  }

  // Line 8-15: cached only on busy GPUs (holders & ~idle). Move to the
  // local queue of the best busy holder if waiting beats re-uploading the
  // model. The wait is estimated_finish_time() - now, read from the flat
  // load array.
  const SimTime load = ctx.load_time(model);
  const SimTime now = ctx.now();
  const GpuBits holders = ctx.cache().holders(model);
  const GpuBits idle = ctx.idle_gpu_bits();
  const GpuLoad* loads = ctx.gpu_loads();
  GpuId best_gpu;
  SimTime best_wait = kSimTimeMax;
  for_each_gpu(
      holders.word_count(),
      [&holders, &idle](std::size_t i) { return holders.word(i) & ~idle.word(i); },
      [&](GpuId gpu_j) {
        const SimTime wait = loads[gpu_j.value()].estimated_finish(now) - now;
        // Ids ascend, so strict < keeps the lowest-id holder on ties.
        if (wait < best_wait) {
          best_wait = wait;
          best_gpu = gpu_j;
        }
      });
  if (best_gpu.valid() && best_wait < load) {
    ctx.move_to_local(request, best_gpu);
    return false;
  }

  // Line 17-18: allow the (false) miss on gpu_i.
  ctx.dispatch_from_global(request, gpu_i, /*false_miss=*/true);
  return true;
}

void LalbScheduler::schedule_in_order(SchedulingContext& ctx) {
  // Plain LALB (§IV-A prose): requests leave the global queue strictly in
  // arrival order; each is placed with locality awareness.
  while (true) {
    // Local queues have absolute priority on idle GPUs (Algorithm 1 l.2-5).
    // The engine's index tracks idle GPUs with pending local work in the
    // same frequency order the old idle-set scan used, so the serve-local
    // head costs O(1) per dispatch instead of O(#idle).
    const GpuId local_gpu = ctx.first_idle_with_local_work();
    if (local_gpu.valid()) {
      ctx.dispatch_from_local(local_gpu);
      continue;
    }

    const Request* head = ctx.global_queue().head();
    if (head == nullptr) return;
    const GpuId first_idle = ctx.first_idle_gpu();
    if (!first_idle.valid()) return;

    // Hit on an idle GPU if possible — resolved against the model's
    // idle holders (holders & idle), not a scan of the idle set.
    const GpuId hit_gpu = best_idle_holder(ctx, head->model, GpuId());
    if (hit_gpu.valid()) {
      ctx.dispatch_from_global(head->id, hit_gpu, /*false_miss=*/false);
      continue;
    }
    // Otherwise Algorithm 2 decides; either way the head leaves the queue.
    locality_load_balance(ctx, first_idle, head->id);
  }
}

void LalbScheduler::schedule_out_of_order(SchedulingContext& ctx) {
  // Algorithm 1 walks the idle GPUs in frequency order by successor lookup
  // on the key each GPU had when visited. That matches a snapshot walk
  // exactly: no GPU turns idle inside a policy call, and a GPU's key only
  // changes when a dispatch takes it out of the idle set.
  const GlobalQueue& queue = ctx.global_queue();
  for (GpuId gpu_i = ctx.first_idle_gpu(); gpu_i.valid() && !queue.empty();) {
    const std::int64_t dispatches = ctx.dispatch_count(gpu_i);
    serve_out_of_order(ctx, gpu_i);
    gpu_i = ctx.next_idle_gpu(dispatches, gpu_i);
  }
  // With the global queue empty the rest of the walk could only serve local
  // queues (lines 2-5) in idle order, which is what the index's serve-local
  // head yields: idle GPUs never gain local work (move_to_local targets
  // busy GPUs).
  for (GpuId gpu = ctx.first_idle_with_local_work(); gpu.valid();
       gpu = ctx.first_idle_with_local_work()) {
    ctx.dispatch_from_local(gpu);
  }
}

void LalbScheduler::serve_out_of_order(SchedulingContext& ctx, GpuId gpu_i) {
  // Lines 2-5: local queue first.
  if (!ctx.local_queues().empty(gpu_i)) {
    ctx.dispatch_from_local(gpu_i);
    return;
  }

  // Lines 6-16: find the earliest request with its model cached on gpu_i,
  // skipping (and aging) non-cached requests up to the limit. The walk
  // uses live arrival-order iterators: within one invocation the only
  // queue mutations are our own actions, and Algorithm 2 only ever removes
  // the request passed to it, so advancing the iterator before acting
  // keeps iteration valid (std::list erase semantics).
  //
  // The scan over the uncached prefix is bounded by the O3 limit in the
  // amortized sense: every touch of a request either dispatches it, ages
  // it (at most o3_limit_ + 1 times over its lifetime), or force-places
  // it, so total scan work per request is O(o3_limit_), independent of
  // queue length.
  const GlobalQueue& queue = ctx.global_queue();
  for (auto it = queue.begin(); it != queue.end();) {
    const auto next = std::next(it);
    if (ctx.cache().is_cached(gpu_i, it->model)) {
      ctx.dispatch_from_global(it->id, gpu_i, /*false_miss=*/false);
      return;
    }
    if (it->visits > o3_limit_) {
      // Starvation limit reached: place unconditionally (lines 11-13).
      // Done once the request took gpu_i, or gpu_i went to other work.
      if (locality_load_balance(ctx, gpu_i, it->id) || !ctx.is_idle(gpu_i)) return;
      it = next;
      continue;
    }
    ctx.mutable_global_queue().bump_visits(it->id);  // lines 14-16
    it = next;
  }

  // For-else (lines 17-21): nothing cached on gpu_i; fall back to
  // locality-aware load balancing in arrival order until gpu_i is used.
  for (auto it = queue.begin(); it != queue.end();) {
    const auto next = std::next(it);
    if (locality_load_balance(ctx, gpu_i, it->id) || !ctx.is_idle(gpu_i)) return;
    it = next;
  }
}

}  // namespace gfaas::core
