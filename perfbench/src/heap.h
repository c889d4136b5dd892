// Counting heap: the benchmark binary replaces the global operator
// new/delete (heap.cpp) so every allocation the program makes is counted
// and the live heap's high-water mark is tracked. Byte totals are the
// allocator's usable sizes, the same for new and delete, so the live figure
// returns to its baseline when memory is freed. Each thread batches its
// counts (heap.cpp): read from the thread that made them, or after the
// threads that made them have exited, the counts are exact; the
// high-water mark can miss up to 64 KiB per running thread.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Allocations (operator new calls of any form) since process start made
/// by this thread or by threads that have exited.
std::uint64_t allocations();
/// Bytes currently allocated through operator new.
std::uint64_t live_bytes();
/// Highest live_bytes() since the last reset_peak().
std::uint64_t peak_bytes();
/// Restarts the high-water mark at the current live heap.
void reset_peak();

}  // namespace perfbench::heap
