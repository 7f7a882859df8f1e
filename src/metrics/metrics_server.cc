#include "src/metrics/metrics_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/common/thread_name.h"
#include "src/metrics/registry.h"

namespace eunomia::metrics {

namespace {

// Parses "host:port" (or bare "port", meaning 127.0.0.1) into a sockaddr.
// Only IPv4 literals and "localhost" — this is a loopback debug endpoint,
// not a general listener.
bool ParseAddress(const std::string& address, sockaddr_in* out) {
  std::string host = "127.0.0.1";
  std::string port = address;
  const std::size_t colon = address.rfind(':');
  if (colon != std::string::npos) {
    host = address.substr(0, colon);
    port = address.substr(colon + 1);
  }
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  char* end = nullptr;
  const long port_num = std::strtol(port.c_str(), &end, 10);
  if (end == port.c_str() || *end != '\0' || port_num < 0 ||
      port_num > 65535) {
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<std::uint16_t>(port_num));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

std::string FormatAddress(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SendResponse(int fd, const char* status, std::string_view body,
                  const char* content_type = "text/plain; charset=utf-8") {
  std::string response = "HTTP/1.0 ";
  response.append(status);
  response.append("\r\nContent-Type: ");
  response.append(content_type);
  response.append("\r\nContent-Length: ");
  response.append(std::to_string(body.size()));
  response.append("\r\nConnection: close\r\n\r\n");
  response.append(body);
  SendAll(fd, response);
}

}  // namespace

MetricsServer::MetricsServer(Registry* registry)
    : registry_(registry != nullptr ? registry : &Registry::Default()) {}

MetricsServer::~MetricsServer() { Stop(); }

std::string MetricsServer::Start(const std::string& address) {
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) {
    std::fprintf(stderr, "metrics: bad listen address \"%s\"\n",
                 address.c_str());
    return "";
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    std::fprintf(stderr, "metrics: cannot listen on \"%s\": %s\n",
                 address.c_str(), std::strerror(errno));
    ::close(fd);
    return "";
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    return "";
  }
  listen_fd_ = fd;
  address_ = FormatAddress(bound);
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] {
    SetCurrentThreadName("metrics-http");
    AcceptLoop();
  });
  return address_;
}

void MetricsServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Wakes the blocked accept() (returns EINVAL on Linux).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or unrecoverable)
    }
    // A stalled scraper must not wedge the single accept thread.
    timeval timeout{.tv_sec = 2, .tv_usec = 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    HandleConnection(client);
    ::close(client);
  }
}

void MetricsServer::HandleConnection(int fd) {
  // Read until the end of the request head (or a small cap — scrape
  // requests have no body worth reading).
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // not even a request line
  const std::string_view line(request.data(), line_end);
  if (line.substr(0, 4) != "GET ") {
    SendResponse(fd, "405 Method Not Allowed", "method not allowed\n");
    return;
  }
  const std::size_t path_end = line.find(' ', 4);
  const std::string_view path =
      line.substr(4, path_end == std::string_view::npos ? std::string_view::npos
                                                        : path_end - 4);
  if (path == "/metrics") {
    SendResponse(fd, "200 OK", registry_->TextExposition(),
                 "text/plain; version=0.0.4; charset=utf-8");
  } else if (path == "/healthz") {
    SendResponse(fd, "200 OK", "ok\n");
  } else {
    SendResponse(fd, "404 Not Found", "not found\n");
  }
}

bool HttpGet(const std::string& address, const std::string& path,
             std::string* body) {
  sockaddr_in addr;
  if (!ParseAddress(address, &addr)) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  timeval timeout{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: " + address + "\r\n\r\n";
  if (!SendAll(fd, request)) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 200 ..." — status code is the second token.
  if (response.compare(0, 5, "HTTP/") != 0) return false;
  const std::size_t space = response.find(' ');
  if (space == std::string::npos ||
      response.compare(space + 1, 3, "200") != 0) {
    return false;
  }
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  if (body != nullptr) *body = response.substr(head_end + 4);
  return true;
}

double SeriesSum(const std::string& exposition, const std::string& name,
                 bool* found) {
  double total = 0.0;
  bool any = false;
  std::size_t line_start = 0;
  while (line_start < exposition.size()) {
    std::size_t eol = exposition.find('\n', line_start);
    if (eol == std::string::npos) {
      eol = exposition.size();
    }
    const std::string_view line(exposition.data() + line_start,
                                eol - line_start);
    const std::size_t value_base = line_start;
    line_start = eol + 1;
    if (line.size() <= name.size() || line[0] == '#' ||
        line.compare(0, name.size(), name) != 0) {
      continue;
    }
    const char next = line[name.size()];
    if (next != '{' && next != ' ') {
      continue;  // a longer family sharing this prefix
    }
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      continue;
    }
    // The value runs from after the last space to end-of-line; strtod stops
    // at the newline on its own.
    total += std::strtod(exposition.c_str() + value_base + space + 1, nullptr);
    any = true;
  }
  if (found != nullptr) {
    *found = any;
  }
  return total;
}

}  // namespace eunomia::metrics
