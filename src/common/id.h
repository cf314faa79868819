// Strongly-typed integer identifiers.
//
// GpuId, NodeId, ModelId, RequestId, TenantId etc. are distinct types so
// the compiler rejects e.g. passing a model id where a GPU id is expected —
// cheap insurance in a codebase that juggles four id spaces in every
// scheduler decision.
#pragma once

#include <cstdint>
#include <functional>

namespace gfaas {

template <typename Tag>
class TypedId {
 public:
  constexpr TypedId() : value_(-1) {}
  constexpr explicit TypedId(std::int64_t value) : value_(value) {}

  constexpr std::int64_t value() const { return value_; }
  constexpr bool valid() const { return value_ >= 0; }

  friend constexpr bool operator==(TypedId a, TypedId b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(TypedId a, TypedId b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(TypedId a, TypedId b) { return a.value_ < b.value_; }

 private:
  std::int64_t value_;
};

struct GpuIdTag {};
struct NodeIdTag {};
struct ModelIdTag {};
struct RequestIdTag {};
struct FunctionIdTag {};
struct TenantIdTag {};

using GpuId = TypedId<GpuIdTag>;
using NodeId = TypedId<NodeIdTag>;
using ModelId = TypedId<ModelIdTag>;
using RequestId = TypedId<RequestIdTag>;
using FunctionId = TypedId<FunctionIdTag>;
using TenantId = TypedId<TenantIdTag>;

}  // namespace gfaas

namespace std {
template <typename Tag>
struct hash<gfaas::TypedId<Tag>> {
  size_t operator()(gfaas::TypedId<Tag> id) const noexcept {
    return std::hash<std::int64_t>{}(id.value());
  }
};
}  // namespace std
