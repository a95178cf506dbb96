#include "sim/statevector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <new>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "sim/block_groups.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;

namespace {

using U64 = std::uint64_t;

/**
 * Below this many kernel iterations a pass runs serially: the
 * thread-pool handoff costs more than the loop itself.
 */
constexpr std::size_t kGrain = 1ULL << 14;

/** Cap on a queued run's length, bounding the phase tables it holds. */
constexpr std::size_t kMaxRunOps = 64;

} // namespace

StateVector::Storage
StateVector::zeroedStorage(std::size_t n)
{
    Storage storage(static_cast<double *>(std::calloc(n, sizeof(double))));
    if (storage == nullptr)
        throw std::bad_alloc();
    return storage;
}

StateVector::StateVector(int n_qubits)
    : nQubits_(n_qubits), blockBits_(std::min(n_qubits, kBlockBits))
{
    fatalIf(n_qubits < 1 || n_qubits > 28,
            "StateVector: qubit count must be in [1, 28]");
    re_ = zeroedStorage(dim());
    im_ = zeroedStorage(dim());
    re_[0] = 1.0;
    occupied_.assign(1ULL << (n_qubits - blockBits_), 0);
    occupied_[0] = 1;
}

StateVector::StateVector(const StateVector &other)
    : nQubits_(other.nQubits_), blockBits_(other.blockBits_),
      re_(zeroedStorage(other.dim())), im_(zeroedStorage(other.dim())),
      occupied_(other.occupied_)
{
    other.forEachBlock(false, [&](BasisState lo, BasisState hi) {
        std::copy(other.re_.get() + lo, other.re_.get() + hi, re_.get() + lo);
        std::copy(other.im_.get() + lo, other.im_.get() + hi, im_.get() + lo);
    });
}

void
StateVector::enqueue(KernelOp &&op, std::vector<KernelOp> &run)
{
    if (occupied_.size() == 1) {
        // One block: the whole register is the block, so apply now.
        runKernel(op, simd::activeKernels(), re_.get(), im_.get(), 0,
                  kernelExtent(op, nQubits_));
        return;
    }
    if ((kernelStrides(op) >> blockBits_) == 0) {
        run.push_back(std::move(op));
        if (run.size() >= kMaxRunOps)
            applyRun(run);
        return;
    }
    applyRun(run);
    applyGrouped(op);
}

void
StateVector::applyRun(std::vector<KernelOp> &run)
{
    if (run.empty())
        return;
    std::vector<U64> blocks;
    for (std::size_t b = 0; b < occupied_.size(); ++b)
        if (occupied_[b] != 0)
            blocks.push_back(b);
    // Block b is kernel indices [b << shift, (b + 1) << shift) of an
    // op whose strides all lie below blockBits_.
    std::vector<int> shifts;
    shifts.reserve(run.size());
    for (const KernelOp &op : run)
        shifts.push_back(blockBits_ - std::popcount(kernelStrides(op)));

    double *re = re_.get();
    double *im = im_.get();
    const simd::KernelTable &K = simd::activeKernels();
    // A block is about run.size() * 2^(blockBits_ - 1) kernel indices.
    const std::size_t grain = std::max<std::size_t>(
        1, kGrain / (run.size() << (blockBits_ - 1)));
    parallelFor(0, blocks.size(), grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            for (std::size_t j = 0; j < run.size(); ++j)
                runKernel(run[j], K, re, im, blocks[i] << shifts[j],
                          (blocks[i] + 1) << shifts[j]);
    });
    run.clear();
}

void
StateVector::applyGrouped(const KernelOp &op)
{
    // The op's high strides pair blocks: a group is the blocks that
    // differ only in those bits, and group g is kernel indices
    // [g << shift, (g + 1) << shift).
    const U64 strides = kernelStrides(op);
    const U64 low = strides & ((1ULL << blockBits_) - 1);
    const U64 high = strides >> blockBits_;
    const int shift = blockBits_ - std::popcount(low);
    const U64 n_groups = occupied_.size() >> std::popcount(high);

    std::vector<U64> groups;
    for (U64 g = 0; g < n_groups; ++g) {
        bool any = false;
        forEachGroupBlock(high, g,
                          [&](U64 b) { any = any || occupied_[b] != 0; });
        if (any)
            groups.push_back(g);
    }

    double *re = re_.get();
    double *im = im_.get();
    const simd::KernelTable &K = simd::activeKernels();
    const std::size_t grain = std::max<std::size_t>(1, kGrain >> shift);
    parallelFor(0, groups.size(), grain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            runKernel(op, K, re, im, groups[i] << shift,
                      (groups[i] + 1) << shift);
    });

    // Blocks a and b traded amplitudes: whole blocks (exact) or parts.
    const auto trade = [this](U64 a, U64 b, bool whole) {
        if (whole)
            std::swap(occupied_[a], occupied_[b]);
        else
            shareOccupancy(occupied_[a], occupied_[b]);
    };
    if (const auto *m1 = std::get_if<Matrix1qOp>(&op)) {
        // An anti-diagonal matrix (X, Y) maps each block onto its
        // partner times a phase; the vacated block is exactly zero.
        const simd::Mat2Split &m = m1->m;
        const bool anti = m.re[0] == 0.0 && m.im[0] == 0.0 &&
                          m.re[3] == 0.0 && m.im[3] == 0.0;
        for (const U64 g : groups) {
            const U64 base = depositAround(g, high);
            trade(base, base | high, anti);
        }
    } else if (const auto *sw = std::get_if<QuadSwapOp>(&op)) {
        // Only the two swapped strata move; with every stride high
        // they are whole blocks. A high control over a low target
        // permutes inside one block (ha == hb).
        const U64 ha = sw->maskA >> blockBits_;
        const U64 hb = sw->maskB >> blockBits_;
        if (ha == hb)
            return;
        for (const U64 g : groups) {
            const U64 base = depositAround(g, high);
            trade(base | ha, base | hb, low == 0);
        }
    }
}

template <typename Fn>
void
StateVector::forEachBlock(bool every, Fn &&fn) const
{
    const BasisState size = 1ULL << blockBits_;
    for (std::size_t b = 0; b < occupied_.size(); ++b)
        if (every || occupied_[b] != 0)
            fn(b * size, (b + 1) * size);
}

void
StateVector::applyGate(const Gate &gate)
{
    std::vector<KernelOp> run;
    lowerGate(gate, [&](KernelOp &&op) { enqueue(std::move(op), run); });
    applyRun(run);
}

void
StateVector::applyCircuit(const circuit::QuantumCircuit &qc)
{
    applyCircuit(qc, simOptions());
}

void
StateVector::applyCircuit(const circuit::QuantumCircuit &qc,
                          const SimOptions &options)
{
    fatalIf(qc.nQubits() != nQubits_,
            "StateVector: circuit qubit count mismatch");
    std::vector<KernelOp> run;
    lowerCircuit(qc, options,
                 [&](KernelOp &&op) { enqueue(std::move(op), run); });
    applyRun(run);
}

StateVector::Amplitude
StateVector::amplitude(BasisState basis) const
{
    fatalIf(basis >= dim(), "StateVector: basis out of range");
    return Amplitude(re_[basis], im_[basis]);
}

double
StateVector::probability(BasisState basis) const
{
    return std::norm(amplitude(basis));
}

double
StateVector::norm() const
{
    // One call over the span of occupied blocks: the zero amplitudes
    // outside it add nothing to any accumulator lane, and the span
    // starts block-aligned, so the sum is the full-register one.
    const auto first = std::find(occupied_.begin(), occupied_.end(), 1);
    if (first == occupied_.end())
        return 0.0;
    const auto last = std::find(occupied_.rbegin(), occupied_.rend(), 1);
    const BasisState lo = static_cast<BasisState>(first - occupied_.begin())
                          << blockBits_;
    const BasisState hi = static_cast<BasisState>(occupied_.rend() - last)
                          << blockBits_;
    return simd::activeKernels().norm2(re_.get(), im_.get(), lo, hi);
}

Pmf
StateVector::measurementPmf(const std::vector<int> &qubits,
                            double threshold) const
{
    fatalIf(qubits.empty(), "measurementPmf: empty qubit list");
    Pmf pmf(static_cast<int>(qubits.size()));
    const double *re = re_.get();
    const double *im = im_.get();
    const auto prob = [&](BasisState basis) {
        return re[basis] * re[basis] + im[basis] * im[basis];
    };

    // Full-register measurement (the exactOutputPmf case): every basis
    // state is its own outcome, in ascending order, so each surviving
    // entry appends once. Entries cannot accumulate here, so the
    // threshold filters at insert time and no prune() pass is needed.
    bool identity = static_cast<int>(qubits.size()) == nQubits_;
    for (std::size_t j = 0; identity && j < qubits.size(); ++j)
        identity = qubits[j] == static_cast<int>(j);
    if (identity) {
        // Size the entries for the exact surviving support (a GHZ
        // state keeps 2 of 2^n). A threshold <= 0 keeps zero entries,
        // so then every block is read.
        const bool every = threshold <= 0.0;
        std::size_t support = 0;
        forEachBlock(every, [&](BasisState lo, BasisState hi) {
            for (BasisState basis = lo; basis < hi; ++basis)
                support += prob(basis) >= threshold;
        });
        pmf.reserve(support);
        forEachBlock(every, [&](BasisState lo, BasisState hi) {
            for (BasisState basis = lo; basis < hi; ++basis) {
                const double p = prob(basis);
                if (p >= threshold)
                    pmf.set(basis, p);
            }
        });
        return pmf;
    }

    // A subset (or permutation): each key sums its terms in basis
    // order, as the reference does. A state with many non-zero
    // amplitudes per key folds into a dense 2^k scratch (2^k <= dim
    // with distinct qubits); a sparse one collects its terms and sorts
    // once, so the scratch never outgrows the terms.
    fatalIf(qubits.size() > static_cast<std::size_t>(nQubits_),
            "measurementPmf: more qubits than the register");
    std::size_t terms = 0;
    forEachBlock(false, [&](BasisState lo, BasisState hi) {
        for (BasisState basis = lo; basis < hi; ++basis)
            terms += prob(basis) > 0.0;
    });
    const std::size_t slots = std::size_t{1} << qubits.size();
    if (slots > std::max<std::size_t>(4 * terms, 1024)) {
        Pmf::Entries entries;
        entries.reserve(terms);
        forEachBlock(false, [&](BasisState lo, BasisState hi) {
            for (BasisState basis = lo; basis < hi; ++basis) {
                const double p = prob(basis);
                if (p > 0.0)
                    entries.emplace_back(extractBits(basis, qubits), p);
            }
        });
        Pmf sparse(static_cast<int>(qubits.size()), std::move(entries));
        sparse.prune(threshold);
        return sparse;
    }
    std::vector<double> sum(slots, 0.0);
    forEachBlock(false, [&](BasisState lo, BasisState hi) {
        for (BasisState basis = lo; basis < hi; ++basis) {
            const double p = prob(basis);
            if (p > 0.0)
                sum[extractBits(basis, qubits)] += p;
        }
    });
    for (std::size_t key = 0; key < slots; ++key)
        if (sum[key] > 0.0 && sum[key] >= threshold)
            pmf.set(key, sum[key]);
    return pmf;
}

void
StateVector::applyPauli(int pauli, int q)
{
    using circuit::GateType;
    static const GateType types[] = {GateType::X, GateType::Y, GateType::Z};
    fatalIf(pauli < 1 || pauli > 3, "applyPauli: pauli must be 1..3");
    applyGate({types[pauli - 1], {q}, {}, -1});
}

} // namespace sim
} // namespace jigsaw
