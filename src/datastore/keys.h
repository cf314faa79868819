// Key-space layout of the gFaaS datastore. In the paper the components
// exchange GPU status, LRU lists and estimated latencies through etcd
// (§III-E). Here the scheduler reads GPU status and finish times from the
// engine's in-process index, so only the Cache Manager's mirror is kept:
//
//   gpu/<id>/lru             comma-separated model ids, LRU -> MRU
//   model/<id>/locations     comma-separated GPU ids caching the model
#pragma once

#include <string>
#include <vector>

#include "common/id.h"

namespace gfaas::datastore::keys {

std::string gpu_lru(GpuId gpu);
std::string model_locations(ModelId model);

// Encoding of the list-valued keys.
std::string encode_id_list(const std::vector<std::int64_t>& ids);

}  // namespace gfaas::datastore::keys
