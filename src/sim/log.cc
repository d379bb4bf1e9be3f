#include "sim/log.hh"

#include <stdexcept>

namespace gtsc::sim
{

void
setLogLevel(int level)
{
    detail::gLogLevel = level;
}

namespace detail
{

void
failImpl(const char *kind, const char *file, int line,
         const std::string &msg)
{
    std::ostringstream oss;
    oss << kind << ": " << msg << " [" << file << ":" << line << "]";
    // Throwing (rather than abort()) lets unit tests assert that
    // invalid inputs are rejected.
    throw std::runtime_error(oss.str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail

} // namespace gtsc::sim
