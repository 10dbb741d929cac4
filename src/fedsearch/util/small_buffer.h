#ifndef FEDSEARCH_UTIL_SMALL_BUFFER_H_
#define FEDSEARCH_UTIL_SMALL_BUFFER_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace fedsearch::util {

// A scratch array of `size` value-initialized Ts that lives on the stack
// when it fits in N, and on the heap otherwise: per-call buffers on the
// query path (one entry per query term or chain level) then cost no
// allocation in the common case.
template <typename T, size_t N>
class SmallBuffer {
 public:
  explicit SmallBuffer(size_t size) : size_(size) {
    if (size > N) heap_.resize(size);
  }

  SmallBuffer(const SmallBuffer&) = delete;
  SmallBuffer& operator=(const SmallBuffer&) = delete;

  std::span<T> span() {
    return {size_ > N ? heap_.data() : inline_.data(), size_};
  }

 private:
  std::array<T, N> inline_{};
  std::vector<T> heap_;
  size_t size_;
};

}  // namespace fedsearch::util

#endif  // FEDSEARCH_UTIL_SMALL_BUFFER_H_
