/**
 * @file
 * Small-buffer-optimised move-only callable for the event engine.
 *
 * `std::function` heap-allocates any capture larger than ~16 bytes and
 * drags in RTTI + copy machinery the engine never uses. Event
 * callbacks are scheduled and destroyed millions of times per run, so
 * the engine stores them in an `InplaceCallback`: a 48-byte inline
 * buffer plus one vtable pointer, with the callable constructed
 * directly in the buffer. There is no heap fallback: a callable that
 * is larger than the buffer, over-aligned, or throwing on move is a
 * compile error. Event callbacks capture `this` and at most one key
 * and look their state up when they fire, so they all fit.
 */

#ifndef RC_SIM_INPLACE_CALLBACK_HH_
#define RC_SIM_INPLACE_CALLBACK_HH_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rc::sim {

class InplaceCallback
{
  public:
    /** Capture bytes stored without a heap allocation. */
    static constexpr std::size_t kInlineBytes = 48;

    InplaceCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InplaceCallback> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
    InplaceCallback(F&& fn) // NOLINT: implicit like std::function
    {
        using D = std::remove_cvref_t<F>;
        static_assert(fitsInline<D>,
                      "InplaceCallback: the callable must fit the inline "
                      "buffer and move without throwing; capture a key "
                      "and look the state up when the callback fires");
        ::new (storage()) D(std::forward<F>(fn));
        _ops = &InlineVt<D>::ops;
    }

    InplaceCallback(InplaceCallback&& other) noexcept { moveFrom(other); }

    InplaceCallback&
    operator=(InplaceCallback&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceCallback(const InplaceCallback&) = delete;
    InplaceCallback& operator=(const InplaceCallback&) = delete;

    ~InplaceCallback() { reset(); }

    /** Invoke the stored callable; precondition: non-empty. */
    void operator()() { _ops->invoke(storage()); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset() noexcept
    {
        if (_ops != nullptr) {
            if (!_ops->trivial)
                _ops->destroy(storage());
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void* storage);
        /** Move-construct into @p to and destroy the source. */
        void (*relocate)(void* from, void* to) noexcept;
        void (*destroy)(void* storage) noexcept;
        /** Trivially copyable + destructible: move is a raw memcpy. */
        bool trivial;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= kInlineBytes &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static constexpr bool triviallyRelocatable =
        std::is_trivially_copyable_v<D> &&
        std::is_trivially_destructible_v<D>;

    template <typename D>
    struct InlineVt
    {
        static D* self(void* p) { return std::launder(static_cast<D*>(p)); }
        static void invoke(void* p) { (*self(p))(); }
        static void
        relocate(void* from, void* to) noexcept
        {
            ::new (to) D(std::move(*self(from)));
            self(from)->~D();
        }
        static void destroy(void* p) noexcept { self(p)->~D(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy,
                                 triviallyRelocatable<D>};
    };

    void* storage() noexcept { return static_cast<void*>(_storage); }

    void
    moveFrom(InplaceCallback& other) noexcept
    {
        if (other._ops != nullptr) {
            // Hot path: every lambda capturing pointers/refs/ints is
            // trivially relocatable — a fixed-size inline memcpy
            // beats an indirect call through the vtable.
            if (other._ops->trivial)
                __builtin_memcpy(_storage, other._storage, kInlineBytes);
            else
                other._ops->relocate(other.storage(), storage());
            _ops = other._ops;
            other._ops = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte _storage[kInlineBytes];
    const Ops* _ops = nullptr;
};

} // namespace rc::sim

#endif // RC_SIM_INPLACE_CALLBACK_HH_
