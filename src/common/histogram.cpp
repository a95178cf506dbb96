#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/multinomial.h"

namespace jigsaw {

Histogram::Histogram(int n_qubits) : nQubits_(n_qubits)
{
    fatalIf(n_qubits < 1 || n_qubits > 64,
            "Histogram: qubit count must be in [1, 64]");
}

void
Histogram::add(BasisState outcome, std::uint64_t count)
{
    counts_[outcome] += count;
    total_ += count;
}

void
Histogram::merge(const Histogram &other)
{
    fatalIf(other.nQubits_ != nQubits_,
            "Histogram::merge: qubit count mismatch");
    for (const auto &[outcome, count] : other.counts_)
        add(outcome, count);
}

std::uint64_t
Histogram::count(BasisState outcome) const
{
    auto it = counts_.find(outcome);
    return it == counts_.end() ? 0 : it->second;
}

Pmf
Histogram::toPmf() const
{
    Pmf pmf(nQubits_);
    if (total_ == 0)
        return pmf;
    const double inv = 1.0 / static_cast<double>(total_);
    for (const auto &[outcome, count] : counts_)
        pmf.set(outcome, static_cast<double>(count) * inv);
    return pmf;
}

Histogram
Histogram::marginal(const std::vector<int> &qubits) const
{
    fatalIf(qubits.empty(), "Histogram::marginal: empty subset");
    Histogram out(static_cast<int>(qubits.size()));
    for (const auto &[outcome, count] : counts_)
        out.add(extractBits(outcome, qubits), count);
    return out;
}

Pmf::Pmf(int n_qubits) : nQubits_(n_qubits)
{
    fatalIf(n_qubits < 1 || n_qubits > 64,
            "Pmf: qubit count must be in [1, 64]");
}

Pmf::Pmf(int n_qubits, Map probabilities)
    : nQubits_(n_qubits), probs_(std::move(probabilities))
{
    fatalIf(n_qubits < 1 || n_qubits > 64,
            "Pmf: qubit count must be in [1, 64]");
}

void
Pmf::set(BasisState outcome, double probability)
{
    probs_[outcome] = probability;
}

void
Pmf::accumulate(BasisState outcome, double delta)
{
    probs_[outcome] += delta;
}

double
Pmf::prob(BasisState outcome) const
{
    auto it = probs_.find(outcome);
    return it == probs_.end() ? 0.0 : it->second;
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
    for (auto it = probs_.begin(); it != probs_.end();) {
        if (it->second < threshold)
            it = probs_.erase(it);
        else
            ++it;
    }
}

Pmf
Pmf::marginal(const std::vector<int> &qubits) const
{
    fatalIf(qubits.empty(), "Pmf::marginal: empty subset");
    Pmf out(static_cast<int>(qubits.size()));
    for (const auto &[outcome, p] : probs_)
        out.accumulate(extractBits(outcome, qubits), p);
    return out;
}

BasisState
Pmf::mode() const
{
    BasisState best = 0;
    double best_p = -1.0;
    for (const auto &[outcome, p] : probs_) {
        if (p > best_p || (p == best_p && outcome < best)) {
            best = outcome;
            best_p = p;
        }
    }
    return best;
}

std::vector<std::pair<BasisState, double>>
Pmf::sorted() const
{
    std::vector<std::pair<BasisState, double>> entries(probs_.begin(),
                                                       probs_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return entries;
}

BasisState
Pmf::sample(Rng &rng) const
{
    fatalIf(probs_.empty(), "Pmf::sample: empty PMF");
    double r = rng.uniform() * totalMass();
    BasisState last = 0;
    for (const auto &[outcome, p] : probs_) {
        r -= p;
        last = outcome;
        if (r <= 0.0)
            return outcome;
    }
    return last;
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
    for (const auto &[outcome, pp] : p.probabilities())
        sum += std::abs(pp - q.prob(outcome));
    for (const auto &[outcome, qq] : q.probabilities()) {
        if (p.prob(outcome) == 0.0)
            sum += std::abs(qq);
    }
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
    for (const auto &[outcome, pp] : p.probabilities()) {
        const double qq = q.prob(outcome);
        if (pp > 0.0 && qq > 0.0)
            bc += std::sqrt(pp * qq);
    }
    return std::sqrt(std::max(0.0, 1.0 - bc));
}

double
klDivergence(const Pmf &p, const Pmf &q)
{
    fatalIf(p.nQubits() != q.nQubits(),
            "klDivergence: qubit count mismatch");
    constexpr double floor = 1e-12;
    double sum = 0.0;
    for (const auto &[outcome, pp] : p.probabilities()) {
        if (pp <= 0.0)
            continue;
        const double qq = std::max(q.prob(outcome), floor);
        sum += pp * std::log(pp / qq);
    }
    return sum;
}

} // namespace jigsaw
