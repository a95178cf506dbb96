#include "common/fault.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/registry.h"

namespace jigsaw {

namespace {

/** Every firing is observable: one Info record and one count in the
 *  process-wide registry (site names are a small fixed set, so the
 *  label cardinality is bounded by construction). */
void
noteInjection(const char *site, bool behavioral, bool transient)
{
    static log::Logger &lg = log::logger("common.fault");
    JIGSAW_LOG_INFO(lg, "fault injected", log::kv("site", site),
                    log::kv("behavioral", behavioral),
                    log::kv("transient", transient));
    obs::Registry::instance()
        .counter("jigsaw_fault_injections_total",
                 "Injected faults fired, by site.", {{"site", site}})
        .add();
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return parts;
}

std::uint64_t
parseCount(const std::string &value, const std::string &rule)
{
    std::size_t used = 0;
    const std::uint64_t parsed = std::stoull(value, &used);
    fatalIf(used != value.size(),
            "fault spec: bad integer '" + value + "' in rule '" + rule +
                "'");
    return parsed;
}

/** True when @p site names an instrumented fault point. */
bool
isKnownSite(const std::string &site)
{
    for (const std::string &known : FaultInjector::knownSites()) {
        if (known == site)
            return true;
    }
    return false;
}

/** Comma-joined knownSites() for the unknown-site error message. */
std::string
knownSiteList()
{
    std::string joined;
    for (const std::string &known : FaultInjector::knownSites()) {
        if (!joined.empty())
            joined += ", ";
        joined += known;
    }
    return joined;
}

} // namespace

const std::vector<std::string> &
FaultInjector::knownSites()
{
    // One name per injectFaultPoint()/fireBehavioral() call site in
    // the instrumented layers (pipeline stages, executors, and the
    // worker tier's transport/worker points).
    static const std::vector<std::string> sites = {
        "stage.plan",     "stage.compile",     "stage.reconstruct",
        "executor.run",   "executor.runBatch", "transport.send",
        "transport.recv", "worker.crash",      "worker.stall",
    };
    return sites;
}

std::vector<FaultRule>
parseFaultSpec(const std::string &spec)
{
    std::vector<FaultRule> rules;
    for (const std::string &text : splitOn(spec, ';')) {
        if (text.empty())
            continue;
        const std::vector<std::string> fields = splitOn(text, ':');
        FaultRule rule;
        const std::string &head = fields.front();
        const std::size_t at = head.find('@');
        rule.site = head.substr(0, at);
        if (at != std::string::npos)
            rule.detail = head.substr(at + 1);
        fatalIf(rule.site.empty(),
                "fault spec: rule '" + text + "' names no site");
        fatalIf(!isKnownSite(rule.site),
                "fault spec: unknown site '" + rule.site + "' in rule '" +
                    text + "' (known sites: " + knownSiteList() + ")");
        for (std::size_t i = 1; i < fields.size(); ++i) {
            const std::string &field = fields[i];
            const std::size_t eq = field.find('=');
            const std::string key = field.substr(0, eq);
            const std::string value =
                eq == std::string::npos ? "" : field.substr(eq + 1);
            if (key == "first") {
                rule.failFirst = parseCount(value, text);
            } else if (key == "prob") {
                std::size_t used = 0;
                rule.probability = std::stod(value, &used);
                fatalIf(used != value.size() || rule.probability < 0.0 ||
                            rule.probability > 1.0,
                        "fault spec: bad probability '" + value +
                            "' in rule '" + text + "'");
            } else if (key == "seed") {
                rule.seed = parseCount(value, text);
            } else if (key == "terminal") {
                rule.transient = false;
            } else if (key == "transient") {
                rule.transient = true;
            } else {
                fatalIf(true, "fault spec: unknown key '" + key +
                                  "' in rule '" + text + "'");
            }
        }
        rules.push_back(std::move(rule));
    }
    return rules;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

FaultInjector::FaultInjector()
{
    if (const char *spec = std::getenv("JIGSAW_FAULT_SPEC"))
        configure(parseFaultSpec(spec));
}

void
FaultInjector::configure(std::vector<FaultRule> rules)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rules_.clear();
    for (FaultRule &rule : rules)
        rules_.emplace_back(std::move(rule));
    injected_ = 0;
    injectedBySite_.clear();
    armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::clear()
{
    configure({});
}

void
FaultInjector::maybeInject(const char *site, const std::string &detail)
{
    std::string message;
    bool transient = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (RuleState &state : rules_) {
            const FaultRule &rule = state.rule;
            if (rule.site != site)
                continue;
            if (!rule.detail.empty() && rule.detail != detail)
                continue;
            bool fire = false;
            if (state.fired < rule.failFirst) {
                ++state.fired;
                fire = true;
            } else if (rule.probability > 0.0 &&
                       state.rng.bernoulli(rule.probability)) {
                fire = true;
            }
            if (!fire)
                continue;
            ++injected_;
            ++injectedBySite_[site];
            transient = rule.transient;
            message = std::string("injected ") +
                      (transient ? "transient" : "terminal") +
                      " fault at " + site +
                      (detail.empty() ? "" : "@" + detail);
            break;
        }
    }
    if (message.empty())
        return;
    noteInjection(site, false, transient);
    if (transient)
        throw TransientError(message);
    throw std::runtime_error(message);
}

std::optional<std::string>
FaultInjector::fireBehavioral(const char *site)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (RuleState &state : rules_) {
        const FaultRule &rule = state.rule;
        if (rule.site != site)
            continue;
        bool fire = false;
        if (state.fired < rule.failFirst) {
            ++state.fired;
            fire = true;
        } else if (rule.probability > 0.0 &&
                   state.rng.bernoulli(rule.probability)) {
            fire = true;
        }
        if (!fire)
            continue;
        ++injected_;
        ++injectedBySite_[site];
        noteInjection(site, true, rule.transient);
        return rule.detail;
    }
    return std::nullopt;
}

std::uint64_t
FaultInjector::injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return injected_;
}

std::uint64_t
FaultInjector::injectedAt(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = injectedBySite_.find(site);
    return it == injectedBySite_.end() ? 0 : it->second;
}

} // namespace jigsaw
