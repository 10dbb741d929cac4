#ifndef FEDSEARCH_UTIL_CHECK_H_
#define FEDSEARCH_UTIL_CHECK_H_

#include <sstream>

// Invariant checking for the numerical core.
//
//   FEDSEARCH_CHECK(p >= 0.0) << "negative mass for " << word;
//   FEDSEARCH_DCHECK(lambda_sum_near_one);
//
// FEDSEARCH_CHECK is always on: a failed condition prints the condition
// text, source location, and any streamed message to stderr, then aborts.
// It guards invariants whose violation would silently corrupt rankings
// (cache-key validity, non-finite statistics escaping into scores).
//
// FEDSEARCH_DCHECK compiles to nothing in optimized builds unless
// FEDSEARCH_DCHECK_ALWAYS_ON is defined (the -DFEDSEARCH_DCHECK=ON cmake
// build). It guards hot-path invariants (per-word probability bounds,
// per-grid-point posterior weights) that are too expensive to verify in
// serving builds but must hold by construction.
//
// The condition is evaluated exactly once; the streamed operands are
// evaluated only on failure.

namespace fedsearch::util::internal {

// Accumulates the message for one failed check; the destructor (end of the
// full expression) writes everything to stderr and aborts. Never heap-held:
// only created as a temporary by the macros below.
class CheckFailureStream {
 public:
  CheckFailureStream(const char* kind, const char* condition,
                     const char* file, int line);
  ~CheckFailureStream();  // [[noreturn]] in effect: always aborts

  CheckFailureStream(const CheckFailureStream&) = delete;
  CheckFailureStream& operator=(const CheckFailureStream&) = delete;

  template <typename T>
  CheckFailureStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
  // Size of the "file:line: KIND failed: condition" prefix; anything past
  // it is a streamed message and gets a ": " separator on output.
  size_t prefix_size_ = 0;
};

// Lowers a CheckFailureStream chain to void so it can sit in the ternary
// below; `&` binds looser than `<<`, tighter than `?:`.
struct Voidify {
  // const& so both a bare temporary (no streamed message) and the lvalue
  // returned by operator<< bind.
  void operator&(const CheckFailureStream&) const {}
};

}  // namespace fedsearch::util::internal

#define FEDSEARCH_CHECK(condition)                            \
  (condition)                                                 \
      ? (void)0                                               \
      : ::fedsearch::util::internal::Voidify() &              \
            ::fedsearch::util::internal::CheckFailureStream(  \
                "CHECK", #condition, __FILE__, __LINE__)

#if !defined(NDEBUG) || defined(FEDSEARCH_DCHECK_ALWAYS_ON)
#define FEDSEARCH_DCHECK_IS_ON 1
#else
#define FEDSEARCH_DCHECK_IS_ON 0
#endif

#if FEDSEARCH_DCHECK_IS_ON
#define FEDSEARCH_DCHECK(condition) FEDSEARCH_CHECK(condition)
#else
// Short-circuits before evaluating `condition` (or any streamed operands)
// while still odr-using everything, so disabled DCHECKs cannot cause
// unused-variable warnings or behaviour differences.
#define FEDSEARCH_DCHECK(condition) FEDSEARCH_CHECK(true || (condition))
#endif

#endif  // FEDSEARCH_UTIL_CHECK_H_
