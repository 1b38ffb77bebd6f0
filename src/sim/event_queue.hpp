#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/arena.hpp"

namespace ytcdn::sim {

/// A time-ordered queue of callbacks.
///
/// Ties are broken by insertion order (FIFO among equal timestamps), which
/// keeps runs deterministic — a requirement for reproducible traces.
///
/// Callbacks are stored as type-erased tasks in fixed-size slab blocks
/// (`util::SlabPool`), not `std::function`: a simulated day churns through
/// millions of events, and per-event heap allocation dominated the simulate
/// profile. The heap itself holds 24-byte {time, seq, task*} entries; task
/// payloads cycle through a small resident set of recycled blocks.
class EventQueue {
    struct TaskBase;

public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;
    ~EventQueue() { clear(); }

    /// Schedules any `void()` callable. The callable is moved into a slab
    /// block; captures up to ~2 KiB are supported (the common case fits the
    /// small-block class).
    template <typename F>
    void push(SimTime time, F&& fn) {
        heap_.push_back(Entry{time, next_seq_++, make_task(std::forward<F>(fn))});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    /// Timestamp of the earliest event; queue must be non-empty.
    [[nodiscard]] SimTime next_time() const;

    /// Move-only handle to a popped task. Invoking it runs the callback, then
    /// destroys it and recycles its slab block — also when the callback
    /// throws, so its captures never leak; destroying the handle un-invoked
    /// does the same without running it.
    class Task {
    public:
        Task(Task&& other) noexcept : queue_(other.queue_), task_(other.task_) {
            other.task_ = nullptr;
        }
        Task(const Task&) = delete;
        Task& operator=(const Task&) = delete;
        Task& operator=(Task&&) = delete;
        ~Task() {
            if (task_ != nullptr) queue_->dispose(task_);
        }

        void operator()() {
            struct Dispose {
                EventQueue* queue;
                TaskBase* task;
                ~Dispose() { queue->dispose(task); }
            } done{queue_, task_};
            task_ = nullptr;
            done.task->invoke(done.task);  // may push new events; safe, it is off the heap
        }

    private:
        friend class EventQueue;
        Task(EventQueue* queue, void* task) noexcept
            : queue_(queue), task_(static_cast<TaskBase*>(task)) {}

        EventQueue* queue_;
        TaskBase* task_;
    };

    /// Removes and returns the earliest event's task, setting `time_out`.
    [[nodiscard]] Task pop(SimTime& time_out);

    void clear();

    /// High-water mark of simultaneously pending tasks (slab blocks).
    [[nodiscard]] std::size_t tasks_peak() const noexcept;

private:
    struct TaskBase {
        void (*invoke)(TaskBase*);
        void (*destroy)(TaskBase*);
        bool large;
    };
    template <typename Fn>
    struct TaskImpl {
        TaskBase base;
        Fn fn;
    };

    struct Entry {
        SimTime time;
        std::uint64_t seq;
        TaskBase* task;
    };
    struct Later {
        bool operator()(const Entry& a, const Entry& b) const noexcept {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t kSmallBlock = 256;
    static constexpr std::size_t kLargeBlock = 2048;

    template <typename F>
    TaskBase* make_task(F&& fn) {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(TaskImpl<Fn>) <= kLargeBlock,
                      "event callback captures too much state for a slab block");
        static_assert(alignof(TaskImpl<Fn>) <= alignof(std::max_align_t));
        constexpr bool small = sizeof(TaskImpl<Fn>) <= kSmallBlock;
        void* block = small ? small_pool_.allocate() : large_pool_.allocate();
        auto* task = ::new (block) TaskImpl<Fn>{
            TaskBase{
                [](TaskBase* t) { reinterpret_cast<TaskImpl<Fn>*>(t)->fn(); },
                [](TaskBase* t) { reinterpret_cast<TaskImpl<Fn>*>(t)->fn.~Fn(); },
                !small,
            },
            std::forward<F>(fn),
        };
        return &task->base;
    }

    /// Returns a block to its pool after the callable has been destroyed.
    void recycle(TaskBase* task) noexcept {
        (task->large ? large_pool_ : small_pool_).deallocate(task);
    }
    /// Destroys the callable and returns the block (un-invoked path).
    void dispose(TaskBase* task) noexcept {
        task->destroy(task);
        recycle(task);
    }

    std::vector<Entry> heap_;
    std::uint64_t next_seq_ = 0;
    util::SlabPool small_pool_{kSmallBlock};
    util::SlabPool large_pool_{kLargeBlock};
};

}  // namespace ytcdn::sim
