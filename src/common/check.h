// FSIM_CHECK / FSIM_DCHECK — the project's invariant-checking macro family,
// plus the invocation counters behind the structural validators
// (PairStore::ValidateNeighborIndex, DynamicGraph::ValidateAdjacency,
// SnapshotStore::ValidateChain).
//
//   FSIM_CHECK(cond) << "context " << value;
//
// evaluates `cond` exactly once and, when false, writes the condition text,
// file:line, the streamed message and a stack trace to stderr, then aborts.
// Unlike the classic naked-`if` formulation, the macro expands to a single
// expression (the glog voidify trick), so it nests inside unbraced if/else
// without -Wdangling-else and can appear in comma expressions.
//
// FSIM_DCHECK compiles away — condition unevaluated — unless the build
// defines FSIM_DEBUG_CHECKS (CMake option -DFSIM_DEBUG_CHECKS=ON). The
// debug-checks build also turns on the automatic validator hooks wired into
// the hot data structures (validated after every PairStore::Build,
// incremental edit burst, graph edit, snapshot publish).
// docs/correctness.md describes the levels.
#ifndef FSIM_COMMON_CHECK_H_
#define FSIM_COMMON_CHECK_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fsim {
namespace internal {

/// Accumulates the failure message of one violated FSIM_CHECK via
/// operator<<; the destructor emits everything (condition, file:line,
/// message, stack trace) to stderr and aborts the process.
class CheckMessage {
 public:
  CheckMessage(const char* file, int line, const char* condition);
  ~CheckMessage();  // emits and aborts — never returns normally

  template <typename T>
  CheckMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Lower-precedence-than-<< sink that turns the CheckMessage chain into a
/// void expression, making FSIM_CHECK usable as one branch of a ternary.
struct CheckVoidify {
  void operator&(CheckMessage&) {}
  void operator&(CheckMessage&&) {}
};

/// Best-effort symbolized stack trace of the calling thread ("" when the
/// platform has no backtrace support). Printed by failing checks so a
/// validator tripping deep inside an engine names its caller chain.
std::string CurrentStackTrace();

}  // namespace internal

/// Process-wide named invocation counters, bumped on entry by every
/// structural validator. The shared test environment
/// (tests/validate_env.cc) asserts after the suite that each expected
/// validator ran at least once, and `fsim_cli --validate` prints the
/// table — so a validator that silently stops being called fails CI
/// instead of rotting.
class ValidatorCounters {
 public:
  /// Increments the counter for `name` (creates it at 1). Thread-safe.
  static void Bump(const char* name);

  /// Current count for `name` (0 if never bumped).
  static uint64_t Count(const char* name);

  /// All (name, count) pairs, sorted by name.
  static std::vector<std::pair<std::string, uint64_t>> Snapshot();
};

}  // namespace fsim

#define FSIM_CHECK(condition)                                       \
  (condition) ? (void)0                                             \
              : ::fsim::internal::CheckVoidify() &                  \
                    ::fsim::internal::CheckMessage(__FILE__, __LINE__, \
                                                   #condition)

#define FSIM_CHECK_EQ(a, b) FSIM_CHECK((a) == (b))
#define FSIM_CHECK_NE(a, b) FSIM_CHECK((a) != (b))
#define FSIM_CHECK_LT(a, b) FSIM_CHECK((a) < (b))
#define FSIM_CHECK_LE(a, b) FSIM_CHECK((a) <= (b))
#define FSIM_CHECK_GT(a, b) FSIM_CHECK((a) > (b))
#define FSIM_CHECK_GE(a, b) FSIM_CHECK((a) >= (b))

// FSIM_DCHECK: hot-path invariants, free in production builds. The
// compiled-out form keeps the condition syntactically alive (names stay
// odr-used, so no unused-variable warnings) but never evaluates it.
#ifdef FSIM_DEBUG_CHECKS
#define FSIM_DCHECK(condition) FSIM_CHECK(condition)
#else
#define FSIM_DCHECK(condition) \
  while (false) FSIM_CHECK(condition)
#endif
#define FSIM_DCHECK_EQ(a, b) FSIM_DCHECK((a) == (b))
#define FSIM_DCHECK_NE(a, b) FSIM_DCHECK((a) != (b))
#define FSIM_DCHECK_LT(a, b) FSIM_DCHECK((a) < (b))
#define FSIM_DCHECK_LE(a, b) FSIM_DCHECK((a) <= (b))
#define FSIM_DCHECK_GT(a, b) FSIM_DCHECK((a) > (b))
#define FSIM_DCHECK_GE(a, b) FSIM_DCHECK((a) >= (b))

#endif  // FSIM_COMMON_CHECK_H_
