/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() signals an internal invariant
 * violation (a bug in this library) and aborts; fatal() signals a user
 * error (bad configuration, invalid arguments) and exits with status 1
 * from any thread (stdio flushed, no static destructors run); warn() and
 * inform() report conditions that do not stop the simulation.
 *
 * Async-signal-safety: every helper above formats through
 * std::ostringstream and emits via stdio — both allocate and lock, so
 * NONE of DFAULT_PANIC/FATAL/WARN/INFORM/ASSERT may be called from a
 * signal handler. Code reachable from a handler (see par/shutdown.cc)
 * must instead rawWrite() a buffer that was fully preformatted at
 * install time; rawWrite is a bare write(2) loop with no allocation,
 * no locks, and no errno clobbering.
 */

#ifndef DFAULT_COMMON_LOGGING_HH
#define DFAULT_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

namespace dfault {

namespace detail {

/** Concatenate a parameter pack into a single string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Silence or restore warn()/inform() output (used by tests). */
void setQuiet(bool quiet);
bool quiet();

} // namespace detail

/**
 * Write a preformatted buffer to a file descriptor with write(2),
 * retrying on partial writes and EINTR. The ONLY output primitive that
 * is async-signal-safe: no allocation, no locks, errno preserved.
 * Callers in signal handlers must pass a buffer composed before the
 * handler was installed (formatting is not handler-safe either).
 */
void rawWrite(int fd, const char *buf, std::size_t len);

/**
 * Abort with a message: something happened that should never happen
 * regardless of what the user does, i.e. a library bug.
 */
#define DFAULT_PANIC(...) \
    ::dfault::detail::panicImpl(__FILE__, __LINE__, \
                                ::dfault::detail::concat(__VA_ARGS__))

/**
 * Exit with a message: the simulation cannot continue due to a condition
 * that is the user's fault (bad configuration, invalid arguments).
 */
#define DFAULT_FATAL(...) \
    ::dfault::detail::fatalImpl(__FILE__, __LINE__, \
                                ::dfault::detail::concat(__VA_ARGS__))

/** Non-fatal warning about questionable but survivable conditions. */
#define DFAULT_WARN(...) \
    ::dfault::detail::warnImpl(::dfault::detail::concat(__VA_ARGS__))

/** Informative status message. */
#define DFAULT_INFORM(...) \
    ::dfault::detail::informImpl(::dfault::detail::concat(__VA_ARGS__))

/** Panic unless a library invariant holds. */
#define DFAULT_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            DFAULT_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

} // namespace dfault

#endif // DFAULT_COMMON_LOGGING_HH
