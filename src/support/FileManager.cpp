#include "support/FileManager.h"

#include <fstream>
#include <sstream>

namespace mcc {

void FileManager::addVirtualFile(std::string Path, std::string_view Contents) {
  auto It = VirtualFiles.find(Path);
  if (It != VirtualFiles.end()) {
    // Identical re-registration dedupes to the existing buffer so repeated
    // compiles of the same source do not grow memory (and keep their
    // SourceManager FileID). A *changed* file retires the old buffer
    // instead of destroying it: SourceLocations handed out for the
    // previous compile must stay renderable.
    if (It->second->getBuffer() == Contents)
      return;
    RetiredBuffers.push_back(std::move(It->second));
    It->second = MemoryBuffer::getMemBuffer(Contents, Path);
    return;
  }
  VirtualFiles[Path] = MemoryBuffer::getMemBuffer(Contents, Path);
}

const MemoryBuffer *FileManager::getBuffer(const std::string &Path) {
  if (auto It = VirtualFiles.find(Path); It != VirtualFiles.end())
    return It->second.get();
  if (auto It = DiskCache.find(Path); It != DiskCache.end())
    return It->second.get();
  if (!DiskFallback)
    return nullptr;

  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return nullptr;
  std::ostringstream SS;
  SS << In.rdbuf();
  auto Buf = MemoryBuffer::getMemBuffer(SS.str(), Path);
  const MemoryBuffer *Raw = Buf.get();
  DiskCache[Path] = std::move(Buf);
  return Raw;
}

bool FileManager::exists(const std::string &Path) const {
  if (VirtualFiles.count(Path) || DiskCache.count(Path))
    return true;
  if (!DiskFallback)
    return false;
  std::ifstream In(Path, std::ios::binary);
  return static_cast<bool>(In);
}

} // namespace mcc
