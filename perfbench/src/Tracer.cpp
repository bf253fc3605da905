#include "Tracer.hpp"

#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace perfbench {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

int
Tracer::begin(const std::string &name, int point)
{
    Span s;
    s.name = name;
    s.point = point;
    s.parent = open.empty() ? -1 : open.back();
    s.startNs = nowNs();
    recorded.push_back(std::move(s));
    open.push_back(static_cast<int>(recorded.size()) - 1);
    return open.back();
}

void
Tracer::end(int index)
{
    if (open.empty() || open.back() != index)
        throw std::logic_error("perfbench: spans closed out of order");
    recorded[static_cast<size_t>(index)].endNs = nowNs();
    open.pop_back();
}

void
Tracer::writeChromeTrace(const std::string &path,
                         const std::vector<std::string> &pointLabels) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    const int64_t t0 = recorded.empty() ? 0 : recorded.front().startNs;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    // Track 0 holds spans outside any point (set-up, emit); track
    // i + 1 holds point i.
    std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":0,\"args\":{\"name\":\"benchmark\"}}");
    for (size_t i = 0; i < pointLabels.size(); ++i)
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                     "\"pid\":1,\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     i + 1, pointLabels[i].c_str());
    for (const Span &s : recorded)
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"point\":%d}}",
                     s.name.c_str(), layerOf(s.name).c_str(),
                     s.point + 1,
                     static_cast<double>(s.startNs - t0) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     s.point);
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

} // namespace perfbench
