// PageVec<T>: shared, tail-appendable column storage.
//
// Every column kind stores its row data in one of these instead of a bare
// std::vector, so copying a column (and so a whole Table) shares its rows
// instead of copying them, and a snapshot-backed table aliases its
// memory-mapped pages with zero copies.
//
// A PageVec is a view {data, size} onto a refcounted buffer that has a
// capacity and an atomic committed length: the rows [0, committed) some
// view has claimed. A view always starts at the buffer's first row and
// only ever reads below its own size, so views of different lengths can
// share one buffer while it grows:
//
//   * copying a PageVec shares the buffer (O(1));
//   * push_back/append extend in place when this view ends at the
//     committed length and capacity remains — the tail is claimed with one
//     CAS on the committed length, which a sole owner skips. Otherwise
//     they reallocate with geometric growth, copying only this view's own
//     rows. So a copy appended at the tip costs O(appended rows) and keeps
//     the shared prefix where it is, while a second append from the same
//     original (a branch) pays one copy of its prefix;
//   * set and clear copy-on-write unless this view is the sole owner;
//   * a mapped snapshot page is a buffer with no spare capacity and no
//     writable storage (its shared_ptr pin keeps the mapping alive), so
//     the first mutation materializes it (one memcpy).
//
// Reads never care how the buffer came to be: data()/size()/operator[]
// and the pointer iterators make a PageVec a contiguous range, so the
// query engine's std::span hoists and every range-for over
// codes()/masks() compile unchanged. Writers and readers of one buffer
// touch disjoint rows; the views themselves follow the usual rule — one
// PageVec object is not mutated while another thread uses it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace rcr::data {

template <typename T>
class PageVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "PageVec moves rows with memcpy");

 public:
  using value_type = T;
  using const_iterator = const T*;

  PageVec() = default;
  PageVec(const PageVec& other) noexcept
      : buf_(other.buf_),
        data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_) {
    if (buf_ == nullptr) return;
    // A sole owner's push_back does not publish its length; publish it
    // before the buffer is shared. Only ever raised: a concurrent copy of
    // the same view may already have shared it and appended.
    std::size_t c = buf_->committed.load(std::memory_order_relaxed);
    while (c < size_ && !buf_->committed.compare_exchange_weak(
                            c, size_, std::memory_order_relaxed)) {
    }
    buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  PageVec(PageVec&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  PageVec& operator=(PageVec other) noexcept {
    std::swap(buf_, other.buf_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }
  ~PageVec() { release(); }

  // A read-only view of [data, data + size); `pin` keeps the underlying
  // storage (the file mapping) alive for as long as any copy of this view
  // exists. data may be null only when size is 0.
  static PageVec borrowed(const T* data, std::size_t size,
                          std::shared_ptr<const void> pin) {
    PageVec v;
    v.buf_ = new Buffer;
    v.buf_->committed.store(size, std::memory_order_relaxed);
    v.buf_->pin = std::move(pin);
    // Never written through: with no spare capacity and no storage, every
    // mutation reallocates first.
    v.data_ = const_cast<T*>(data);
    v.size_ = v.capacity_ = size;
    return v;
  }

  // n rows written by fill(T* rows), which must set every one of them; the
  // storage is not zero-filled first.
  template <typename Fill>
  static PageVec for_overwrite(std::size_t n, Fill&& fill) {
    PageVec v;
    v.reallocate(n);
    fill(v.data_);
    v.size_ = n;
    v.buf_->committed.store(n, std::memory_order_relaxed);
    return v;
  }

  bool is_borrowed() const { return buf_ != nullptr && !buf_->storage; }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  // Drops all elements. A sole owner keeps its capacity (reused scratch
  // columns rely on that), and so does a view of a shared buffer, in a
  // fresh buffer of its own; a borrowed view just releases its pin.
  void clear() {
    if (writable_sole_owner()) {
      buf_->committed.store(0, std::memory_order_relaxed);
      size_ = 0;
    } else if (buf_ != nullptr && buf_->storage) {
      size_ = 0;
      reallocate(capacity_);
    } else {
      *this = PageVec();
    }
  }

  void push_back(const T& v) {
    if (size_ < capacity_ && sole_owner()) {
      data_[size_++] = v;  // the ingest hot path: no atomic write
      return;
    }
    *extend(1) = v;
  }

  void set(std::size_t i, const T& v) {
    if (!writable_sole_owner()) reallocate(size_);  // copy-on-write
    data_[i] = v;
  }

  void append(const PageVec& other) { append(other, 0, other.size()); }

  // Appends other[lo, hi). `other` may be *this.
  void append(const PageVec& other, std::size_t lo, std::size_t hi) {
    if (&other == this) {
      const PageVec source = other;  // pins the rows if extend reallocates
      append(source, lo, hi);
      return;
    }
    const std::size_t n = hi - lo;
    if (n == 0) return;
    // In place the new rows land at or past the committed length, above
    // every row of `other` (a view of the same buffer ends at or below
    // it); a reallocation leaves `other`'s buffer untouched.
    std::memcpy(extend(n), other.data_ + lo, n * sizeof(T));
  }

  friend bool operator==(const PageVec& a, const PageVec& b) {
    if (a.size() != b.size()) return false;
    if (a.size() == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }

 private:
  // Rows [0, committed) are claimed by some view. While several views
  // share the buffer, committed is at or past every view's end and only
  // grows. A sole owner's push_back leaves it behind (the copy
  // constructor republishes it); its other mutations set it exactly.
  struct Buffer {
    std::atomic<std::size_t> refs{1};
    std::atomic<std::size_t> committed{0};
    std::unique_ptr<T[]> storage;     // null for a borrowed page
    std::shared_ptr<const void> pin;  // a borrowed page's mapping
  };

  // The acquire pairs with the release half of every other view's
  // decrement in release(), so rows they read happen-before our writes.
  bool sole_owner() const {
    return buf_->refs.load(std::memory_order_acquire) == 1;
  }
  bool writable_sole_owner() const {
    return buf_ != nullptr && buf_->storage && sole_owner();
  }

  // Extends this view by n rows and returns where they start; the caller
  // writes all n.
  T* extend(std::size_t n) {
    if (!extend_in_place(n)) {
      // The same growth as std::vector's: at least double, exactly enough
      // when one append more than doubles.
      reallocate(size_ + std::max(size_, n));
      buf_->committed.store(size_ + n, std::memory_order_relaxed);
    }
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  // A borrowed page has capacity_ == size_, so it never extends in place.
  bool extend_in_place(std::size_t n) {
    if (capacity_ - size_ < n) return false;
    if (sole_owner()) {
      // Rows past our end are nobody's.
      buf_->committed.store(size_ + n, std::memory_order_relaxed);
      return true;
    }
    std::size_t tip = size_;
    return buf_->committed.compare_exchange_strong(tip, size_ + n,
                                                   std::memory_order_acq_rel);
  }

  // Moves this view's rows into a fresh buffer of the given capacity
  // (>= size_) that only this view references.
  void reallocate(std::size_t capacity) {
    auto* fresh = new Buffer;
    fresh->storage = std::make_unique_for_overwrite<T[]>(capacity);
    fresh->committed.store(size_, std::memory_order_relaxed);
    if (size_ > 0) std::memcpy(fresh->storage.get(), data_, size_ * sizeof(T));
    release();
    buf_ = fresh;
    data_ = fresh->storage.get();
    capacity_ = capacity;
  }

  void release() {
    if (buf_ != nullptr &&
        buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete buf_;
  }

  Buffer* buf_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // of the buffer; size_ for a borrowed page
};

}  // namespace rcr::data
