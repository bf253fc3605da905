#include "frameworks/Overheads.hpp"

namespace gsuite {

FrameworkOverheads
FrameworkOverheads::defaults(Framework fw)
{
    switch (fw) {
      case Framework::Pyg:
        return {1.2e6, 250.0, 1.30};
      case Framework::Dgl:
        return {0.55e6, 90.0, 1.10};
      case Framework::Gsuite:
      default:
        return {0.03e6, 8.0, 1.00};
    }
}

} // namespace gsuite
