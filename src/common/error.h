/**
 * @file
 * Error-reporting helpers shared across the JigSaw libraries.
 *
 * Following the gem5 fatal()/panic() distinction: user-caused
 * configuration errors throw std::invalid_argument via fatalIf();
 * internal invariant violations abort via panicIf().
 */
#ifndef JIGSAW_COMMON_ERROR_H
#define JIGSAW_COMMON_ERROR_H

#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

namespace jigsaw {

/** Throw std::invalid_argument when a user-facing precondition fails. */
inline void
fatalIf(bool condition, const std::string &message)
{
    if (condition)
        throw std::invalid_argument(message);
}

/**
 * fatalIf() for a literal message: the string is only built when the
 * check fails, so hot accessors pay nothing for passing checks.
 */
inline void
fatalIf(bool condition, const char *message)
{
    if (condition)
        throw std::invalid_argument(message);
}

/** Abort when an internal invariant is violated (a library bug). */
inline void
panicIf(bool condition, const std::string &message)
{
    if (condition)
        throw std::logic_error("internal error: " + message);
}

/** panicIf() for a literal message (no allocation when it passes). */
inline void
panicIf(bool condition, const char *message)
{
    if (condition)
        throw std::logic_error(std::string("internal error: ") + message);
}

/**
 * A failure worth retrying: the operation may succeed if repeated
 * from scratch with the same inputs (a flaky backend call, an
 * injected soft fault). The streaming scheduler restarts such a job's
 * whole pipeline — never resumes mid-stream — so a retried job's draw
 * stream replays from Rng(executorSeed) and its result stays
 * bitwise-identical to an undisturbed run. Anything not derived from
 * TransientError is terminal: retrying a deterministic failure (bad
 * configuration, an invariant violation) would only repeat it.
 */
class TransientError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A job outlived its ServiceProgram::deadlineMs SLO and was expired
 *  by the scheduler before (or instead of) running. */
class DeadlineExceededError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** True when @p error is retry-worthy (derives from TransientError). */
inline bool
isTransient(const std::exception_ptr &error)
{
    if (!error)
        return false;
    try {
        std::rethrow_exception(error);
    } catch (const TransientError &) {
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace jigsaw

#endif // JIGSAW_COMMON_ERROR_H
