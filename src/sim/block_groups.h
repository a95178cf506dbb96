/**
 * @file
 * Block-group walks shared by the blocked StateVector and the tiled
 * P' build (sim::noisyOutcomeDistribution).
 *
 * Both split a dense 2^n vector into equal blocks and keep one
 * occupancy flag per block: 1 if the block may hold a non-zero value,
 * 0 if it is still all +0. A pass whose strides reach the block bits
 * @p high pairs blocks, and the blocks that differ only in those bits
 * form a group; group g is the same for both users, so the two walk
 * and mark their blocks through these helpers.
 */
#ifndef JIGSAW_SIM_BLOCK_GROUPS_H
#define JIGSAW_SIM_BLOCK_GROUPS_H

#include <cstdint>

#include "common/simd.h"

namespace jigsaw {
namespace sim {

/** Spread the bits of @p g over the positions not in @p skip (PDEP). */
inline std::uint64_t
depositAround(std::uint64_t g, std::uint64_t skip)
{
    for (std::uint64_t rest = skip; rest != 0; rest &= rest - 1)
        g = simd::insertZero(g, rest & (~rest + 1));
    return g;
}

/**
 * Call @p fn with each block of group @p g under the block bits
 * @p high, in ascending order: g's bits spread around @p high, then
 * every subset of @p high set.
 */
template <typename Fn>
void
forEachGroupBlock(std::uint64_t high, std::uint64_t g, Fn &&fn)
{
    const std::uint64_t base = depositAround(g, high);
    std::uint64_t sub = 0;
    do {
        fn(base | sub);
        sub = (sub - high) & high;
    } while (sub != 0);
}

/**
 * Occupancy after blocks @p a and @p b trade part of their values
 * (they may be the same block): two blocks still all +0 stay so, and
 * false says the pass may skip them; otherwise both may now hold a
 * non-zero value.
 */
inline bool
shareOccupancy(std::uint8_t &a, std::uint8_t &b)
{
    if ((a | b) == 0)
        return false;
    a = b = 1;
    return true;
}

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_BLOCK_GROUPS_H
