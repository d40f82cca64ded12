// Pluggable process-wide allocation accounting.
//
// When the build defines NETTRAILS_COUNT_ALLOCS (CMake option
// -DNETTRAILS_COUNT_ALLOCS=ON, bench/CI builds only), alloc_hook.cc replaces
// global operator new/delete with thin wrappers that bump an atomic counter
// before delegating to malloc/free. Callers sample AllocCount() around a
// region of interest — bench_churn does this per converged link flap and
// reports the delta as `allocs_per_flap`, the zero-allocation-shipping-path
// regression metric pinned by scripts/check_alloc_budget.sh.
//
// In normal builds the hook is compiled out: AllocCount() returns 0 and
// AllocCountingEnabled() is false, so the benches omit their allocation
// counters rather than report an unmeasured zero. The hook must NOT be combined with
// sanitizer builds — ASan interposes malloc and operator new itself, and the
// CMake configuration rejects the combination.
#ifndef NETTRAILS_COMMON_ALLOC_HOOK_H_
#define NETTRAILS_COMMON_ALLOC_HOOK_H_

#include <cstdint>

namespace nettrails {

/// Total calls to global operator new (all forms) since process start.
/// Always 0 when the hook is compiled out.
uint64_t AllocCount();

/// Calls to global operator new made by the CALLING thread since it
/// started. Engines sample this one around their drains: a drain executes
/// entirely on one thread, so the delta attributes allocations exactly to
/// that engine even when other workers allocate concurrently (the process-
/// wide AllocCount() delta would smear them together). Always 0 when the
/// hook is compiled out.
uint64_t AllocCountThisThread();

/// True when this build counts allocations (NETTRAILS_COUNT_ALLOCS).
bool AllocCountingEnabled();

}  // namespace nettrails

#endif  // NETTRAILS_COMMON_ALLOC_HOOK_H_
