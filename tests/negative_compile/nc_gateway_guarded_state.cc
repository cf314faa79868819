// Negative-compile probe for the Gateway's serving-state contract: reading
// a member GUARDED_BY(serial_) without the executor-affinity capability
// must fail thread-safety analysis. Reverting the GUARDED_BY on
// Gateway::flights_ (or the friend seam) makes this file compile — and
// the WILL_FAIL ctest entry catch it.
#include <cstddef>

#include "gateway/gateway.h"

namespace gfaas::gateway {

class ThreadSafetyProbe {
 public:
  // BUG: reads Gateway::flights_ without serial_.AssertHeld().
  static std::size_t unguarded_in_flight(const Gateway& gateway) {
    return gateway.flights_.size();
  }
};

}  // namespace gfaas::gateway

int main() {
  return 0;
}
