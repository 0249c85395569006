#include "workloads/workload.hh"

#include <functional>
#include <map>

#include "common/logging.hh"
#include "workloads/factories.hh"

namespace mbavf
{

namespace
{

using Factory = std::function<std::unique_ptr<Workload>(unsigned)>;

const std::map<std::string, Factory> &
factories()
{
    static const std::map<std::string, Factory> table = {
        {"minife", makeMinife},
        {"comd", makeComd},
        {"srad", makeSrad},
        {"hotspot", makeHotspot},
        {"pathfinder", makePathfinder},
        {"scan_large_arrays", makeScanLargeArrays},
        {"prefix_sum", makePrefixSum},
        {"dwt_haar1d", makeDwtHaar1d},
        {"fast_walsh", makeFastWalsh},
        {"dct", makeDct},
        {"histogram", makeHistogram},
        {"matrix_transpose", makeMatrixTranspose},
        {"recursive_gaussian", makeRecursiveGaussian},
        {"matmul", makeMatmul},
        {"bfs", makeBfs},
        {"kmeans", makeKmeans},
        {"nw", makeNw},
        {"lud", makeLud},
        {"backprop", makeBackprop},
    };
    return table;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, unsigned scale)
{
    auto it = factories().find(name);
    if (it == factories().end())
        fatal("unknown workload '", name, "'");
    return it->second(scale);
}

bool
isWorkload(const std::string &name)
{
    return factories().count(name) != 0;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "minife", "comd", "srad", "hotspot", "pathfinder",
        "bfs", "kmeans", "nw", "lud", "backprop",
        "scan_large_arrays", "prefix_sum", "dwt_haar1d", "fast_walsh",
        "dct", "histogram", "matrix_transpose", "recursive_gaussian",
        "matmul",
    };
    return names;
}

const std::vector<std::string> &
appSdkWorkloadNames()
{
    static const std::vector<std::string> names = {
        "scan_large_arrays", "dct", "dwt_haar1d", "fast_walsh",
        "histogram", "matrix_transpose", "prefix_sum",
        "recursive_gaussian", "matmul",
    };
    return names;
}

} // namespace mbavf
