#include "harness/parallel.hh"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"

namespace wsl {

std::optional<unsigned>
parseJobCount(std::string_view text)
{
    // from_chars takes no sign or whitespace for an unsigned type.
    unsigned v = 0;
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc{} || end != last)
        return std::nullopt;
    if (v == 0) {
        // 0 = "use every core".
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1u;
    }
    return v;
}

unsigned
parseJobs(const char *text, const char *what)
{
    constexpr unsigned serial = 1;
    if (!text || !*text)
        return serial;
    if (const std::optional<unsigned> jobs = parseJobCount(text))
        return *jobs;
    warn(what, "='", text, "' is not a thread count; running serially");
    return serial;
}

unsigned
defaultJobs()
{
    return parseJobs(std::getenv("WSL_JOBS"), "WSL_JOBS");
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs > n)
        jobs = static_cast<unsigned>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    {
        std::vector<std::jthread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
    }  // jthreads join here
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace wsl
