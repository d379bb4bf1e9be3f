/**
 * @file
 * Minimal logging / fatal-error helpers in the spirit of gem5's
 * base/logging.hh: panic() for internal invariant violations and
 * fatal() for user configuration errors.
 */

#ifndef GTSC_SIM_LOG_HH_
#define GTSC_SIM_LOG_HH_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace gtsc::sim
{

namespace detail
{

/** The level logLevel() reads: inline, so a disabled GTSC_DEBUG or
 *  GTSC_INFORM costs one load and a branch, not a call. */
inline int gLogLevel = 0;

[[noreturn]] void
failImpl(const char *kind, const char *file, int line,
         const std::string &msg);

void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Build a string from stream-style arguments. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Global verbosity level: 0 silent, 1 inform, 2 debug trace. */
inline int
logLevel()
{
    return detail::gLogLevel;
}

/** Set the global verbosity level. */
void setLogLevel(int level);

/** Abort: an internal simulator bug (invariant broken). */
#define GTSC_PANIC(...)                                                 \
    ::gtsc::sim::detail::failImpl(                                      \
        "panic", __FILE__, __LINE__,                                    \
        ::gtsc::sim::detail::concat(__VA_ARGS__))

/** Exit with error: the user supplied an invalid configuration. */
#define GTSC_FATAL(...)                                                 \
    ::gtsc::sim::detail::failImpl(                                      \
        "fatal", __FILE__, __LINE__,                                    \
        ::gtsc::sim::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; always checked (not NDEBUG-gated). */
#define GTSC_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::gtsc::sim::detail::failImpl(                              \
                "assert(" #cond ")", __FILE__, __LINE__,                \
                ::gtsc::sim::detail::concat("" __VA_ARGS__));           \
        }                                                               \
    } while (0)

/** Informational message (shown at logLevel >= 1). */
#define GTSC_INFORM(...)                                                \
    do {                                                                \
        if (::gtsc::sim::logLevel() >= 1) {                             \
            ::gtsc::sim::detail::informImpl(                            \
                ::gtsc::sim::detail::concat(__VA_ARGS__));              \
        }                                                               \
    } while (0)

/** Debug trace message (shown at logLevel >= 2). */
#define GTSC_DEBUG(...)                                                 \
    do {                                                                \
        if (::gtsc::sim::logLevel() >= 2) {                             \
            ::gtsc::sim::detail::debugImpl(                             \
                ::gtsc::sim::detail::concat(__VA_ARGS__));              \
        }                                                               \
    } while (0)

} // namespace gtsc::sim

#endif // GTSC_SIM_LOG_HH_
