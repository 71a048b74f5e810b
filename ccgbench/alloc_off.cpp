// Untraced binary: no allocation counting (see alloc_hook.cpp).
#include "bench.hpp"

long long ccgbench::alloc_count() { return -1; }
