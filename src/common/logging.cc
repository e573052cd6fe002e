#include "common/logging.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

namespace dfault {
namespace detail {

namespace {
std::atomic<bool> g_quiet{false};
} // namespace

void
setQuiet(bool quiet)
{
    g_quiet.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return g_quiet.load(std::memory_order_relaxed);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

// _Exit, not exit: static destructors would make par::Pool's global
// instance join its own thread, or threads a forked child lacks.
void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(1);
}

namespace {

/**
 * Preformat the whole line and hand it to the OS in one write: stderr
 * is unbuffered, so concurrent warn()/inform() calls from parallel
 * sweeps emit whole lines instead of interleaved fragments.
 */
void
emitLine(const char *prefix, const std::string &msg)
{
    if (quiet())
        return;
    std::string line;
    line.reserve(std::char_traits<char>::length(prefix) + msg.size() + 3);
    line += prefix;
    line += ": ";
    line += msg;
    line += '\n';
    std::fputs(line.c_str(), stderr);
}

} // namespace

void
warnImpl(const std::string &msg)
{
    emitLine("warn", msg);
}

void
informImpl(const std::string &msg)
{
    emitLine("info", msg);
}

} // namespace detail

void
rawWrite(int fd, const char *buf, std::size_t len)
{
    const int saved_errno = errno;
    while (len > 0) {
        const ssize_t n = ::write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // Nothing safe to do about a failing fd here.
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    errno = saved_errno;
}

} // namespace dfault
