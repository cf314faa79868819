#include "datastore/keys.h"

namespace gfaas::datastore::keys {

std::string gpu_lru(GpuId gpu) {
  return "gpu/" + std::to_string(gpu.value()) + "/lru";
}
std::string model_locations(ModelId model) {
  return "model/" + std::to_string(model.value()) + "/locations";
}

std::string encode_id_list(const std::vector<std::int64_t>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace gfaas::datastore::keys
