#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/multinomial.h"

namespace jigsaw {

namespace {

template <class V>
using Entries = std::vector<std::pair<BasisState, V>>;

template <class V>
bool
keyBefore(const std::pair<BasisState, V> &entry, BasisState key)
{
    return entry.first < key;
}

/** The stored entry of @p key, or nullptr. */
template <class V>
const V *
findEntry(const Entries<V> &entries, BasisState key)
{
    const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                     keyBefore<V>);
    return it != entries.end() && it->first == key ? &it->second : nullptr;
}

/**
 * The value of @p key, inserted as V{} when absent: an append when
 * @p key is above every stored outcome, else a binary search (and an
 * insert into the middle, for the rare out-of-order caller).
 */
template <class V>
V &
slot(Entries<V> &entries, BasisState key)
{
    if (entries.empty() || entries.back().first < key)
        return entries.emplace_back(key, V{}).second;
    if (entries.back().first == key)
        return entries.back().second;
    auto it = std::lower_bound(entries.begin(), entries.end(), key,
                               keyBefore<V>);
    if (it->first != key)
        it = entries.insert(it, {key, V{}});
    return it->second;
}

/**
 * Sorts @p entries by outcome and sums the values of a repeated outcome
 * in their given order, starting from V{} as slot() would: the result
 * equals inserting the entries one at a time. Strictly ascending input
 * is left as it is.
 */
template <class V>
void
sortAndMerge(Entries<V> &entries)
{
    const auto not_before = [](const auto &a, const auto &b) {
        return a.first >= b.first;
    };
    if (std::adjacent_find(entries.begin(), entries.end(), not_before) ==
        entries.end())
        return;
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries.size();) {
        const BasisState key = entries[i].first;
        V sum{};
        for (; i < entries.size() && entries[i].first == key; ++i)
            sum += entries[i].second;
        entries[out++] = {key, sum};
    }
    entries.resize(out);
}

/**
 * Entries of @p in folded onto @p qubits (extractBits keys), values of
 * one key summed in input order. Narrow keys fold into a dense 2^k
 * scratch; wide ones collect and sort once. Both give the same result.
 */
template <class V>
Entries<V>
fold(const Entries<V> &in, const std::vector<int> &qubits)
{
    const std::size_t k = qubits.size();
    Entries<V> out;
    if (k < 32 && (std::size_t{1} << k) <=
                      std::max<std::size_t>(4 * in.size(), 1024)) {
        const std::size_t slots = std::size_t{1} << k;
        std::vector<V> sum(slots, V{});
        std::vector<unsigned char> seen(slots, 0);
        for (const auto &[outcome, value] : in) {
            const BasisState key = extractBits(outcome, qubits);
            sum[key] += value;
            seen[key] = 1;
        }
        for (std::size_t key = 0; key < slots; ++key)
            if (seen[key])
                out.emplace_back(key, sum[key]);
        return out;
    }
    out.reserve(in.size());
    for (const auto &[outcome, value] : in)
        out.emplace_back(extractBits(outcome, qubits), value);
    sortAndMerge(out);
    return out;
}

/**
 * Calls @p f(outcome, a_i, b_i) for every outcome of the joint support
 * of @p a and @p b in ascending order, with V{} for the side that
 * lacks it.
 */
template <class V, class F>
void
jointWalk(const Entries<V> &a, const Entries<V> &b, F &&f)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
        if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
            f(a[i].first, a[i].second, V{});
            ++i;
        } else if (i == a.size() || b[j].first < a[i].first) {
            f(b[j].first, V{}, b[j].second);
            ++j;
        } else {
            f(a[i].first, a[i].second, b[j].second);
            ++i;
            ++j;
        }
    }
}

} // namespace

Histogram::Histogram(int n_qubits) : nQubits_(n_qubits)
{
    fatalIf(n_qubits < 1 || n_qubits > 64,
            "Histogram: qubit count must be in [1, 64]");
}

Histogram::Histogram(int n_qubits, Entries entries)
    : Histogram(n_qubits)
{
    sortAndMerge(entries);
    counts_ = std::move(entries);
    for (const auto &[outcome, count] : counts_)
        total_ += count;
}

void
Histogram::add(BasisState outcome, std::uint64_t count)
{
    slot(counts_, outcome) += count;
    total_ += count;
}

void
Histogram::merge(const Histogram &other)
{
    fatalIf(other.nQubits_ != nQubits_,
            "Histogram::merge: qubit count mismatch");
    if (other.counts_.empty())
        return;
    Entries merged;
    merged.reserve(counts_.size() + other.counts_.size());
    jointWalk(counts_, other.counts_,
              [&](BasisState outcome, std::uint64_t a, std::uint64_t b) {
                  merged.emplace_back(outcome, a + b);
              });
    counts_ = std::move(merged);
    total_ += other.total_;
}

std::uint64_t
Histogram::count(BasisState outcome) const
{
    const std::uint64_t *c = findEntry(counts_, outcome);
    return c == nullptr ? 0 : *c;
}

Pmf
Histogram::toPmf() const
{
    if (total_ == 0)
        return Pmf(nQubits_);
    const double inv = 1.0 / static_cast<double>(total_);
    Pmf::Entries probs(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        probs[i] = {counts_[i].first,
                    static_cast<double>(counts_[i].second) * inv};
    return Pmf(nQubits_, std::move(probs));
}

Histogram
Histogram::marginal(const std::vector<int> &qubits) const
{
    fatalIf(qubits.empty(), "Histogram::marginal: empty subset");
    Histogram out(static_cast<int>(qubits.size()));
    out.counts_ = fold(counts_, qubits);
    out.total_ = total_;
    return out;
}

Pmf::Pmf(int n_qubits) : nQubits_(n_qubits)
{
    fatalIf(n_qubits < 1 || n_qubits > 64,
            "Pmf: qubit count must be in [1, 64]");
}

Pmf::Pmf(int n_qubits, Entries entries) : Pmf(n_qubits)
{
    sortAndMerge(entries);
    probs_ = std::move(entries);
}

void
Pmf::set(BasisState outcome, double probability)
{
    slot(probs_, outcome) = probability;
}

void
Pmf::accumulate(BasisState outcome, double delta)
{
    slot(probs_, outcome) += delta;
}

double
Pmf::prob(BasisState outcome) const
{
    const double *p = findEntry(probs_, outcome);
    return p == nullptr ? 0.0 : *p;
}

double
Pmf::totalMass() const
{
    double total = 0.0;
    for (const auto &[outcome, p] : probs_)
        total += p;
    return total;
}

void
Pmf::normalize()
{
    const double total = totalMass();
    if (total <= 0.0)
        return;
    const double inv = 1.0 / total;
    for (auto &[outcome, p] : probs_)
        p *= inv;
}

void
Pmf::prune(double threshold)
{
    std::erase_if(probs_, [threshold](const auto &entry) {
        return entry.second < threshold;
    });
}

Pmf
Pmf::marginal(const std::vector<int> &qubits) const
{
    fatalIf(qubits.empty(), "Pmf::marginal: empty subset");
    Pmf out(static_cast<int>(qubits.size()));
    out.probs_ = fold(probs_, qubits);
    return out;
}

BasisState
Pmf::mode() const
{
    BasisState best = 0;
    double best_p = -1.0;
    for (const auto &[outcome, p] : probs_) {
        if (p > best_p) {
            best = outcome;
            best_p = p;
        }
    }
    return best;
}

std::vector<std::pair<BasisState, double>>
Pmf::sorted() const
{
    std::vector<std::pair<BasisState, double>> entries = probs_;
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return entries;
}

BasisState
Pmf::sample(Rng &rng) const
{
    fatalIf(probs_.empty(), "Pmf::sample: empty PMF");
    double r = rng.uniform() * totalMass();
    for (const auto &[outcome, p] : probs_) {
        r -= p;
        if (r <= 0.0)
            return outcome;
    }
    return probs_.back().first;
}

Histogram
Pmf::sampleHistogram(std::uint64_t trials, Rng &rng) const
{
    if (probs_.empty() || trials == 0)
        return Histogram(nQubits_);
    return MultinomialSampler(*this).draw(trials, rng);
}

double
totalVariationDistance(const Pmf &p, const Pmf &q)
{
    fatalIf(p.nQubits() != q.nQubits(),
            "totalVariationDistance: qubit count mismatch");
    double sum = 0.0;
    jointWalk(p.probabilities(), q.probabilities(),
              [&](BasisState, double pp, double qq) {
                  sum += std::abs(pp - qq);
              });
    return 0.5 * sum;
}

double
hellingerDistance(const Pmf &p, const Pmf &q)
{
    fatalIf(p.nQubits() != q.nQubits(),
            "hellingerDistance: qubit count mismatch");
    // H(p, q)^2 = 1 - sum_i sqrt(p_i q_i); only the joint support
    // contributes to the Bhattacharyya coefficient.
    double bc = 0.0;
    jointWalk(p.probabilities(), q.probabilities(),
              [&](BasisState, double pp, double qq) {
                  if (pp > 0.0 && qq > 0.0)
                      bc += std::sqrt(pp * qq);
              });
    return std::sqrt(std::max(0.0, 1.0 - bc));
}

double
klDivergence(const Pmf &p, const Pmf &q)
{
    fatalIf(p.nQubits() != q.nQubits(),
            "klDivergence: qubit count mismatch");
    constexpr double floor = 1e-12;
    double sum = 0.0;
    jointWalk(p.probabilities(), q.probabilities(),
              [&](BasisState, double pp, double qq) {
                  if (pp > 0.0)
                      sum += pp * std::log(pp / std::max(qq, floor));
              });
    return sum;
}

} // namespace jigsaw
