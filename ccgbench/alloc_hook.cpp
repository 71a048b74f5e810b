// Traced binary only: counts every global operator new, for
// api.allocs_per_job. The untraced binary links alloc_off.cpp instead and
// keeps the stock allocator, so the end-to-end figures pay no counting.
#include "bench.hpp"
#include "common/alloc_count.hpp"

long long ccgbench::alloc_count() { return ccg::alloc_count(); }
