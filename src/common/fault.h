/**
 * @file
 * Deterministic, seed-driven fault injection for robustness testing.
 *
 * The executor and pipeline-stage layers are instrumented with named
 * fault points (injectFaultPoint("executor.run") etc.). With no rules
 * configured a fault point is one relaxed atomic load — cheap enough
 * to leave compiled into production builds. Tests and CI arm the
 * process-wide injector either programmatically
 * (FaultInjector::instance().configure(...)) or through the
 * JIGSAW_FAULT_SPEC environment variable, whose spec is parsed once
 * when the injector is first touched:
 *
 *   JIGSAW_FAULT_SPEC = rule[;rule...]
 *   rule  = site[@detail][:key[=value]...]
 *   keys  = first=N     fail the first N matching hits (deterministic
 *                       in total count, whatever the thread
 *                       interleaving)
 *           prob=P      additionally fail later hits with probability
 *                       P, drawn from this rule's own seeded stream
 *           seed=S      seed of that stream (default 1)
 *           terminal    throw std::runtime_error (no retry)
 *           transient   throw TransientError (the default; the
 *                       scheduler retries these)
 *
 * A rule's site must name one of the instrumented points
 * (FaultInjector::knownSites()); a typo'd site is rejected at parse
 * time instead of silently never firing.
 *
 * Example: "stage.compile:first=2;executor.run@4096:first=1:terminal"
 * fails the first two compile stages transiently and the first
 * 4096-shot executor run terminally.
 *
 * Two kinds of sites exist. Throwing sites (stage.*, executor.*,
 * transport.*) raise from injectFaultPoint when a rule fires, and
 * their rule detail is a MATCHER against the point's runtime detail
 * (executor.run's detail is the run's shot count, which tells one
 * job's global run from another's; the other throwing sites carry
 * none). Behavioral sites (worker.crash, worker.stall) are
 * polled with fireBehavioral() instead: the worker tier asks "did
 * this fault fire?" and acts out the failure itself (die silently,
 * sleep), and the rule's detail is a PARAMETER handed back to the
 * caller — worker.stall@250 stalls the worker 250 ms.
 *
 * Determinism contract: counted rules fire an exact total number of
 * times; which concurrent caller absorbs each fault may vary, but the
 * scheduler's full-restart retry makes every surviving job's result
 * independent of who was hit — the property the robustness tests
 * assert bitwise.
 */
#ifndef JIGSAW_COMMON_FAULT_H
#define JIGSAW_COMMON_FAULT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace jigsaw {

/** One fault-injection rule (see file comment for the spec grammar). */
struct FaultRule
{
    std::string site;   ///< Exact fault-point name ("executor.run").
    std::string detail; ///< Non-empty: must equal the point's detail.
    std::uint64_t failFirst = 0; ///< Fail the first N matching hits.
    double probability = 0.0;    ///< Seeded-random faults on later hits.
    std::uint64_t seed = 1;      ///< Seed of this rule's draw stream.
    bool transient = true; ///< TransientError vs plain runtime_error.
};

/** Parse a JIGSAW_FAULT_SPEC string; throws std::invalid_argument on
 *  malformed input or an unknown site name (the error lists the known
 *  sites). An empty spec yields no rules. */
std::vector<FaultRule> parseFaultSpec(const std::string &spec);

class FaultInjector
{
  public:
    /** The process-wide injector. First use parses JIGSAW_FAULT_SPEC
     *  (if set) into the initial rule set. */
    static FaultInjector &instance();

    /** Replace all rules and reset hit/injection counters. */
    void configure(std::vector<FaultRule> rules);

    /** Drop every rule and reset counters (disarms all points). */
    void clear();

    /** Evaluate the fault point @p site; throws when a rule fires. */
    void maybeInject(const char *site, const std::string &detail);

    /**
     * Evaluate the behavioral fault point @p site: like maybeInject,
     * but instead of throwing, a fired rule returns its detail string
     * — the fault's parameter, for the caller to act on (e.g. the
     * worker tier sleeps worker.stall@250's 250 ms, or exits its
     * thread on worker.crash). Rule details never filter matching
     * here; they are payload, not matcher. std::nullopt when no rule
     * fired. Counts into injected()/injectedAt() like any fault.
     */
    std::optional<std::string> fireBehavioral(const char *site);

    /**
     * Every fault-point name the instrumented layers call, throwing
     * and behavioral alike. parseFaultSpec rejects anything else, so
     * a misspelled site fails fast instead of never firing.
     */
    static const std::vector<std::string> &knownSites();

    /** Total faults injected since the last configure()/clear(). */
    std::uint64_t injected() const;

    /** Faults injected at one site since the last configure()/clear(). */
    std::uint64_t injectedAt(const std::string &site) const;

    /** True when at least one rule is configured. */
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

  private:
    FaultInjector();

    struct RuleState
    {
        FaultRule rule;
        std::uint64_t fired = 0; ///< Counted (first=N) faults so far.
        Rng rng;                 ///< Stream for probabilistic faults.

        explicit RuleState(FaultRule r)
            : rule(std::move(r)), rng(rule.seed)
        {
        }
    };

    mutable std::mutex mutex_;
    std::vector<RuleState> rules_;
    std::uint64_t injected_ = 0;
    std::unordered_map<std::string, std::uint64_t> injectedBySite_;
    std::atomic<bool> armed_{false};
};

/**
 * The instrumented sites call this: near-zero cost (one relaxed
 * atomic load) until the injector is armed.
 */
inline void
injectFaultPoint(const char *site, const std::string &detail = {})
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.armed())
        injector.maybeInject(site, detail);
}

/** injectFaultPoint() with a numeric detail, formatted only when the
 *  injector is armed. */
inline void
injectFaultPoint(const char *site, std::uint64_t detail)
{
    FaultInjector &injector = FaultInjector::instance();
    if (injector.armed())
        injector.maybeInject(site, std::to_string(detail));
}

} // namespace jigsaw

#endif // JIGSAW_COMMON_FAULT_H
