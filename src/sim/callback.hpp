#pragma once
// Small-buffer-optimized, move-only `void()` callable — the event payload
// type of the discrete-event engine.
//
// Every simulated action (timer expiry, frame completion, protocol step)
// is one of these; a campaign dispatches hundreds of millions.  The
// std::function it replaces heap-allocates any capture over ~16 bytes,
// and the common CANELy callbacks ([this, id, cb] timer wrappers, bus
// completion closures) all exceed that.  With 48 bytes of inline storage
// they never touch the heap, which together with the engine's pooled
// event slots makes the steady-state schedule->dispatch path
// allocation-free (asserted by tests/test_sim_alloc.cpp).
//
// Callables larger than the inline buffer (or with throwing moves) fall
// back to the heap; the per-thread `heap_constructions()` counter exists
// so tests can pin down which paths stay inline.
//
// Copying a Callback copies the held callable, so component state that
// holds pending callbacks (engine slots, timer services) can be
// checkpointed and restored by plain copy-assignment.  Every hot
// callable is trivially copyable (a byte copy); copying one that is not
// copy-constructible throws std::logic_error.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace canely::sim {

class Callback {
 public:
  /// Inline capture capacity.  Sized to hold the stack's biggest hot
  /// callables (a std::function copy is 32 bytes; the timer-service and
  /// bus closures are 16-32) with headroom.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Destroy any held callable and construct `f` in place (no
  /// intermediate Callback, no move of the capture).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    reset();
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ++heap_constructions_;
      // canely-lint: allow(hot-path-transitive) — heap fallback is the cold branch; hot-path callables fit the inline buffer (tests/test_sim_alloc.cpp)
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  Callback(const Callback& other) { copy_from(other); }
  Callback& operator=(const Callback& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  ~Callback() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Test hook: per-thread count of callables that exceeded the inline
  /// buffer and were boxed on the heap.
  [[nodiscard]] static std::uint64_t heap_constructions() {
    return heap_constructions_;
  }

 private:
  // A null `relocate` means the storage is trivially relocatable (fixed
  // 48-byte memcpy — branchless, no indirect call); a null `copy` means
  // it is trivially copyable the same way; a null `destroy` means
  // nothing to destroy.  Hot callables (lambdas over references and
  // scalars) hit all three null paths.
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to);  // move-construct + destroy from
    void (*copy)(const void* from, void* to);  // copy-construct into `to`
    void (*destroy)(void* storage);
  };

  [[noreturn]] static void throw_not_copyable() {
    throw std::logic_error("sim::Callback: held callable is not copyable");
  }

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*std::launder(reinterpret_cast<D*>(storage)))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* from, void* to) {
              D* src = std::launder(reinterpret_cast<D*>(from));
              ::new (to) D(std::move(*src));
              src->~D();
            },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](const void* from, void* to) {
              if constexpr (std::is_copy_constructible_v<D>) {
                ::new (to) D(*std::launder(reinterpret_cast<const D*>(from)));
              } else {
                throw_not_copyable();
              }
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* storage) {
              std::launder(reinterpret_cast<D*>(storage))->~D();
            },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**reinterpret_cast<D**>(storage))(); },
      nullptr,  // boxed pointer: memcpy relocates it
      [](const void* from, void* to) {
        if constexpr (std::is_copy_constructible_v<D>) {
          *reinterpret_cast<D**>(to) =
              new D(**reinterpret_cast<D* const*>(from));
        } else {
          throw_not_copyable();
        }
      },
      [](void* storage) { delete *reinterpret_cast<D**>(storage); },
  };

  void move_from(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineSize);
      }
      other.ops_ = nullptr;
    }
  }

  void copy_from(const Callback& other) {
    if (other.ops_ == nullptr) return;
    if (other.ops_->copy != nullptr) {
      other.ops_->copy(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
    ops_ = other.ops_;  // only once the copy has succeeded
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};

  static inline thread_local std::uint64_t heap_constructions_ = 0;
};

}  // namespace canely::sim
