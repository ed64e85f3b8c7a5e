#include "logging.h"

#include <iostream>
#include <stdexcept>

#include "thread_annotations.h"

namespace pimdl {

namespace {

const char *
levelName(LogLevel level)
{
    switch (level) {
    case LogLevel::Debug:
        return "DEBUG";
    case LogLevel::Info:
        return "INFO";
    case LogLevel::Warn:
        return "WARN";
    case LogLevel::Error:
        return "ERROR";
    case LogLevel::Off:
        return "OFF";
    }
    return "?";
}

/** Serializes writes to std::cerr across concurrently logging
 * threads (the stream itself is the guarded resource). */
Mutex &
emitMutex()
{
    static Mutex mutex{"logging.emit"};
    return mutex;
}

} // namespace

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::emit(LogLevel level, const std::string &message)
{
    if (static_cast<int>(level) < static_cast<int>(level_))
        return;
    MutexLock guard(emitMutex());
    std::cerr << "[pimdl:" << levelName(level) << "] " << message << "\n";
}

void
logMessage(LogLevel level, const std::string &message)
{
    Logger::instance().emit(level, message);
}

void
fatalError(const std::string &message)
{
    logMessage(LogLevel::Error, "fatal: " + message);
    throw std::runtime_error(message);
}

void
panicError(const std::string &message)
{
    logMessage(LogLevel::Error, "panic: " + message);
    throw std::logic_error(message);
}

} // namespace pimdl
