#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Heap allocations (every operator new form) made by the process so far.
int64_t AllocationCount();
// Of those, the ones made by the calling thread.
int64_t ThreadAllocationCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
