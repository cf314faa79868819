#include "datastore/keys.h"

#include <cstdlib>

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

std::vector<std::int64_t> decode_id_list(const std::string& encoded) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < encoded.size()) {
    std::size_t comma = encoded.find(',', pos);
    if (comma == std::string::npos) comma = encoded.size();
    out.push_back(std::strtoll(encoded.substr(pos, comma - pos).c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

}  // namespace gfaas::datastore::keys
