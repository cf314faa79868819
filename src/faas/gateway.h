// Gateway: the public entry point of the FaaS framework (paper Fig. 1/2).
//
// Registration parses the function's Dockerfile for the GPU-enable flag;
// for GPU-enabled functions the Gateway "replaces the interface that the
// function uses for loading and running a model with a customized
// interface that redirects those requests to the GPU Manager" (§III-A) —
// here, the GpuBackend interface implemented by the cluster's scheduling
// engine. Plain functions run in containers under the Watchdog.
#pragma once

#include <functional>
#include <string>

#include "common/status.h"
#include "datastore/kv_store.h"
#include "faas/container.h"
#include "faas/registry.h"
#include "faas/tenancy.h"

namespace gfaas::faas {

// The customized model-serving interface GPU-enabled functions are
// rewired to. Implemented by FaasCluster on a simulated cluster.
class GpuBackend {
 public:
  virtual ~GpuBackend() = default;
  // Submits an inference invocation; the callback fires on completion
  // with the result or an error.
  virtual void submit(const FunctionSpec& spec, const Payload& input,
                      std::function<void(StatusOr<InvocationResult>)> done) = 0;
};

class Gateway {
 public:
  Gateway(datastore::KvStore* store, const sim::Clock* clock, GpuBackend* gpu_backend)
      : store_(store), watchdog_(store, clock), gpu_backend_(gpu_backend),
        clock_(clock) {}

  // --- CRUD (delegates to the registry after Dockerfile parsing) ---
  Status register_function(FunctionSpec spec) {
    return registry_.create(std::move(spec));
  }
  Status update_function(FunctionSpec spec) { return registry_.update(std::move(spec)); }
  Status deregister_function(const std::string& name) { return registry_.remove(name); }
  StatusOr<FunctionSpec> describe(const std::string& name) const {
    return registry_.get(name);
  }
  std::vector<std::string> list_functions() const { return registry_.list(); }

  // --- multi-tenancy (§VI) ---
  // When a TenantManager is attached, invocations must carry a known
  // tenant and pass its admission checks (rate limit, concurrency cap,
  // GPU-time share). Not owned.
  void set_tenant_manager(TenantManager* manager) { tenants_ = manager; }

  // --- invocation ---
  // Asynchronous invoke: GPU-enabled functions go to the GpuBackend;
  // plain functions execute synchronously in a pooled container and the
  // callback fires before return. `tenant` is required when a
  // TenantManager is attached (empty = anonymous, only without one).
  void invoke(const std::string& name, const Payload& input,
              std::function<void(StatusOr<InvocationResult>)> done,
              const std::string& tenant = "");

  // Synchronous convenience for plain (CPU) functions.
  StatusOr<InvocationResult> invoke_sync(const std::string& name, const Payload& input,
                                         const std::string& tenant = "");

  const FunctionRegistry& registry() const { return registry_; }
  ContainerPool& containers() { return pool_; }

 private:
  datastore::KvStore* store_;
  FunctionRegistry registry_;
  ContainerPool pool_;
  Watchdog watchdog_;
  GpuBackend* gpu_backend_;
  TenantManager* tenants_ = nullptr;
  const sim::Clock* clock_ = nullptr;
};

}  // namespace gfaas::faas
