/**
 * @file
 * In-memory host-time spans recorded around the suite's public calls
 * by the traced run, written once at the end as a Chrome trace
 * (loads in Perfetto / chrome://tracing). Single-threaded: spans are
 * opened and closed on the benchmark's own thread, so they nest.
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <chrono>
#include <string>
#include <vector>

#include "Metrics.hpp"

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (all threads). */
double processCpuSeconds();

class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name, int point);
    /** Close span @p index (must be the innermost open one). */
    void end(int index);

    const std::vector<Span> &spans() const { return recorded; }

    /** Write every span as Chrome-trace "X" events, one track per
     *  point (@p pointLabels[i] names point i's track). */
    void writeChromeTrace(const std::string &path,
                          const std::vector<std::string> &pointLabels)
        const;

  private:
    std::vector<Span> recorded;
    std::vector<int> open;
};

/** RAII span; a null tracer records nothing. */
class Scoped
{
  public:
    Scoped(Tracer *tracer, const std::string &name, int point)
        : tracer(tracer), index(tracer ? tracer->begin(name, point) : -1)
    {
    }
    ~Scoped()
    {
        if (tracer)
            tracer->end(index);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Tracer *tracer;
    int index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
