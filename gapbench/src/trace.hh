/**
 * @file
 * Span recorder for the traced run.  Spans are opened by the benchmark's
 * own code around each call it makes into a layer's public API (nothing
 * inside the library is instrumented).  Each span carries its name, start
 * and end, the span that caused it, and a request id shared by the spans
 * of one operation.  Spans stay in per-thread memory until the run ends;
 * write() then emits one Chrome trace_event JSON file and self_times()
 * folds the spans into per-layer self time (duration minus the time
 * covered by child spans).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gapbench
{

struct Span
{
    const char* name = "";    ///< static string: "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;     ///< unique within the run, never 0
    std::uint64_t parent = 0; ///< enclosing span on this thread, 0 = root
    std::uint64_t request = 0;
    int thread = 0;
};

class Tracer
{
  public:
    /** A disabled tracer records nothing; Scope costs one branch. */
    explicit Tracer(bool enabled);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span on the calling thread. */
    class Scope
    {
      public:
        Scope(Tracer& tracer, const char* name, std::uint64_t request);
        ~Scope();

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* tracer_ = nullptr; ///< null when not recording
        Span span_;
    };

    /** Every recorded span (call after all recording threads joined). */
    std::vector<Span> spans() const;

    /** Self nanoseconds per layer (the span-name prefix before '.'). */
    std::map<std::string, std::int64_t> self_times() const;

    /** Write a Chrome trace_event document; @p metadata is a JSON object
     *  stored under "metadata".  Returns the validation error, or "". */
    std::string write(const std::string& path,
                      const std::string& metadata) const;

  private:
    struct Buffer
    {
        int thread = 0;
        std::vector<Span> spans;
        std::vector<std::uint64_t> open; ///< ids of open spans
    };
    Buffer& local();

    bool enabled_;
    std::uint64_t serial_; ///< unique per tracer in the process
    mutable std::mutex mu_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::atomic<std::uint64_t> next_id_{1};
};

} // namespace gapbench
