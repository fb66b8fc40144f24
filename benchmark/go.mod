module rankedaccess/benchmark

go 1.23

require rankedaccess v0.0.0

replace rankedaccess => ../
