#ifndef UQSIM_CORE_ENGINE_INLINE_FUNCTION_H_
#define UQSIM_CORE_ENGINE_INLINE_FUNCTION_H_

/**
 * @file
 * Move-only type-erased callable with configurable inline storage.
 *
 * The event hot path schedules millions of small closures; wrapping
 * each in a std::function costs a heap allocation whenever the
 * capture exceeds the (16-byte, libstdc++) small-object buffer.
 * InlineFunction sizes its buffer per use site so the common capture
 * sets stay inline, and supports move-only captures (e.g. another
 * InlineFunction, a unique_ptr), which std::function cannot hold.
 *
 * A callable larger than the buffer spills to a block from per-thread
 * free lists in 64-byte size classes (SpillBlocks), so a warm run
 * recycles spill blocks instead of allocating them.  Callables over
 * 512 bytes, and over-aligned ones, take a plain heap allocation.
 */

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace uqsim {

/**
 * Per-thread free lists of InlineFunction spill blocks, one list per
 * 64-byte size class up to kMaxBytes.  Every block is its own
 * ::operator new allocation, so a block freed on another thread than
 * the one that took it simply joins that thread's list: no lock.  A
 * thread's lists are returned to the heap when the thread exits.
 */
class SpillBlocks {
  public:
    static constexpr std::size_t kClassBytes = 64;
    static constexpr std::size_t kMaxBytes = 512;

    /** Size class of a @p bytes block (1 <= bytes <= kMaxBytes). */
    static constexpr std::size_t
    sizeClass(std::size_t bytes)
    {
        return (bytes - 1) / kClassBytes;
    }

    static void*
    take(std::size_t size_class)
    {
        if (!closed_) {
            Lists& lists = lists_;
            if (Block* block = lists.heads[size_class]) {
                lists.heads[size_class] = block->next;
                return block;
            }
        }
        return ::operator new((size_class + 1) * kClassBytes);
    }

    static void
    give(void* block, std::size_t size_class) noexcept
    {
        if (closed_) {
            ::operator delete(block);
            return;
        }
        Lists& lists = lists_;
        Block* freed = ::new (block) Block{lists.heads[size_class]};
        lists.heads[size_class] = freed;
    }

  private:
    struct Block {
        Block* next;
    };

    struct Lists {
        Block* heads[kMaxBytes / kClassBytes] = {};

        ~Lists()
        {
            for (Block*& head : heads) {
                while (head != nullptr) {
                    Block* block = head;
                    head = block->next;
                    ::operator delete(block);
                }
            }
            closed_ = true;
        }
    };

    /** Set once this thread's lists are gone (thread exit); later
     *  spills fall back to the heap. */
    static thread_local bool closed_;
    static thread_local Lists lists_;
};

inline thread_local bool SpillBlocks::closed_ = false;
inline thread_local SpillBlocks::Lists SpillBlocks::lists_;

template <typename Signature, std::size_t InlineBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
    InlineFunction(F&& fn)  // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void*>(storage_))
                Fn(std::forward<F>(fn));
            ops_ = &InlineOps<Fn>::ops;
        } else if constexpr (pooledSpill<Fn>()) {
            constexpr std::size_t size_class =
                SpillBlocks::sizeClass(sizeof(Fn));
            void* block = SpillBlocks::take(size_class);
            try {
                ::new (static_cast<void*>(storage_))
                    Fn*(::new (block) Fn(std::forward<F>(fn)));
            } catch (...) {
                SpillBlocks::give(block, size_class);
                throw;
            }
            ops_ = &HeapOps<Fn>::ops;
        } else {
            ::new (static_cast<void*>(storage_))
                Fn*(new Fn(std::forward<F>(fn)));
            ops_ = &HeapOps<Fn>::ops;
        }
    }

    InlineFunction(InlineFunction&& other) noexcept
    {
        moveFrom(other);
    }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroys the held callable, leaving the function empty. */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    /** True when the callable is stored inline (no heap block). */
    bool storedInline() const
    {
        return ops_ != nullptr && ops_->inlineStored;
    }

  private:
    struct Ops {
        R (*invoke)(void*, Args&&...);
        void (*relocate)(void* src, void* dst) noexcept;
        void (*destroy)(void*) noexcept;
        bool inlineStored;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    /** Spills of at most SpillBlocks::kMaxBytes reuse pooled
     *  blocks; ::operator new already suits their alignment. */
    template <typename Fn>
    static constexpr bool
    pooledSpill()
    {
        return sizeof(Fn) <= SpillBlocks::kMaxBytes &&
               alignof(Fn) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    }

    template <typename Fn>
    struct InlineOps {
        static R
        invoke(void* s, Args&&... args)
        {
            return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void* src, void* dst) noexcept
        {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
        }
        static void
        destroy(void* s) noexcept
        {
            static_cast<Fn*>(s)->~Fn();
        }
        static constexpr Ops ops = {&invoke, &relocate, &destroy, true};
    };

    template <typename Fn>
    struct HeapOps {
        static Fn*&
        held(void* s)
        {
            return *static_cast<Fn**>(s);
        }
        static R
        invoke(void* s, Args&&... args)
        {
            return (*held(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void* src, void* dst) noexcept
        {
            ::new (dst) Fn*(held(src));
        }
        static void
        destroy(void* s) noexcept
        {
            Fn* fn = held(s);
            if constexpr (pooledSpill<Fn>()) {
                fn->~Fn();
                SpillBlocks::give(fn, SpillBlocks::sizeClass(sizeof(Fn)));
            } else {
                delete fn;
            }
        }
        static constexpr Ops ops = {&invoke, &relocate, &destroy,
                                    false};
    };

    void
    moveFrom(InlineFunction& other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(other.storage_, storage_);
            other.ops_ = nullptr;
        }
    }

    static constexpr std::size_t kStorageBytes =
        InlineBytes < sizeof(void*) ? sizeof(void*) : InlineBytes;

    alignas(std::max_align_t) unsigned char storage_[kStorageBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_INLINE_FUNCTION_H_
