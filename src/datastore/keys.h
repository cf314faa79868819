// Canonical key-space layout for the gFaaS datastore, mirroring how the
// paper's components exchange state through etcd (§III-E):
//
//   gpu/<id>/status          "busy" | "idle"
//   gpu/<id>/finish_time     estimated finish time of queued work (µs)
//   gpu/<id>/lru             comma-separated model ids, LRU -> MRU
//   gpu/<id>/free_mem        free GPU memory (bytes)
//   model/<id>/locations     comma-separated GPU ids caching the model
#pragma once

#include <string>
#include <vector>

#include "common/id.h"

namespace gfaas::datastore::keys {

std::string gpu_status(GpuId gpu);
std::string gpu_finish_time(GpuId gpu);
std::string gpu_lru(GpuId gpu);
std::string gpu_free_mem(GpuId gpu);
std::string model_locations(ModelId model);

// Encoding helpers for the list-valued keys.
std::string encode_id_list(const std::vector<std::int64_t>& ids);
std::vector<std::int64_t> decode_id_list(const std::string& encoded);

}  // namespace gfaas::datastore::keys
