/**
 * @file
 * FNV-1a mixing primitives shared by every content hash in the
 * library (circuit structural hashes, device fingerprints). One
 * definition keeps the hash streams these caches and the scheduler's
 * shared executors key on from drifting apart.
 */
#ifndef JIGSAW_COMMON_FNV_H
#define JIGSAW_COMMON_FNV_H

#include <bit>
#include <cstdint>

namespace jigsaw {

/** The 64-bit FNV-1a offset basis (the hash accumulator's seed). */
constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/** Mix the bytes of one 64-bit word into @p h (FNV-1a). */
inline void
fnvMixWord(std::uint64_t &h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xffULL;
        h *= 1099511628211ULL;
    }
}

/** Mix the exact bit pattern of @p v into @p h. */
inline void
fnvMixDouble(std::uint64_t &h, double v)
{
    fnvMixWord(h, std::bit_cast<std::uint64_t>(v));
}

} // namespace jigsaw

#endif // JIGSAW_COMMON_FNV_H
