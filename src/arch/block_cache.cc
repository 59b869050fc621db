#include "arch/block_cache.h"

namespace sm::arch {

BlockCache::BlockCache(u32 num_entries)
    : mask_(num_entries - 1), entries_(num_entries) {
  if (num_entries == 0 || (num_entries & (num_entries - 1)) != 0) {
    throw std::invalid_argument("block cache size must be a power of two");
  }
}

void BlockCache::clear() {
  // Only the key: every probe compares pa first, and recording writes every
  // field a later run reads.
  for (Block& b : entries_) b.pa = kInvalidPa;
}

}  // namespace sm::arch
