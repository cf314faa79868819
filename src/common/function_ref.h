// A non-owning reference to a callable: one object pointer and one
// function pointer, so passing a capturing lambda never allocates (a
// std::function holding a lambda wider than its inline buffer does).
// The referenced callable must outlive the call it is passed to; a
// FunctionRef is a parameter type, never a stored member.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace gfaas {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): a parameter type
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace gfaas
