#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "gm/support/json.hh"
#include "gm/support/timer.hh"

namespace gapbench
{

namespace
{

/** Each thread's buffer in the tracer it last recorded into, keyed by
 *  that tracer's serial: a later tracer may reuse a destroyed one's
 *  address, never its serial. */
std::atomic<std::uint64_t> g_next_serial{1};
thread_local std::uint64_t tl_serial = 0;
thread_local void* tl_buffer = nullptr;

} // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), serial_(g_next_serial.fetch_add(1))
{
}

Tracer::Buffer&
Tracer::local()
{
    if (tl_serial != serial_) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread = static_cast<int>(buffers_.size());
        tl_serial = serial_;
        tl_buffer = buffers_.back().get();
    }
    return *static_cast<Buffer*>(tl_buffer);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
{
    if (!tracer.enabled_)
        return;
    tracer_ = &tracer;
    Buffer& buf = tracer.local();
    span_.name = name;
    span_.request = request;
    span_.thread = buf.thread;
    span_.parent = buf.open.empty() ? 0 : buf.open.back();
    span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
    buf.open.push_back(span_.id);
    span_.start_ns = gm::Timer::now_ns();
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    span_.end_ns = gm::Timer::now_ns();
    Buffer& buf = tracer_->local();
    buf.open.pop_back();
    buf.spans.push_back(span_);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& buf : buffers_)
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    return all;
}

std::map<std::string, std::int64_t>
Tracer::self_times() const
{
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : all)
        if (s.parent != 0)
            child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, std::int64_t> self;
    for (const Span& s : all) {
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.find('.'));
        const auto it = child_ns.find(s.id);
        const std::int64_t children = it == child_ns.end() ? 0 : it->second;
        self[layer] += std::max<std::int64_t>(0, s.end_ns - s.start_ns -
                                                     children);
    }
    return self;
}

std::string
Tracer::write(const std::string& path, const std::string& metadata) const
{
    std::vector<Span> all = spans();
    std::int64_t origin = 0;
    if (!all.empty()) {
        origin = std::min_element(all.begin(), all.end(),
                                  [](const Span& a, const Span& b) {
                                      return a.start_ns < b.start_ns;
                                  })
                     ->start_ns;
    }
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << metadata
        << ",\"traceEvents\":[";
    bool first = true;
    char buf[96];
    for (const Span& s : all) {
        out << (first ? "" : ",") << "\n{\"name\":\""
            << gm::support::json_escape(s.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread;
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.start_ns - origin) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        out << buf << ",\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}}";
        first = false;
    }
    out << "\n]}\n";
    const std::string text = out.str();
    if (auto s = gm::support::json_validate(text); !s.is_ok())
        return s.to_string();
    std::ofstream file(path, std::ios::out | std::ios::trunc);
    file << text;
    file.close();
    if (!file)
        return "cannot write " + path;
    return "";
}

} // namespace gapbench
