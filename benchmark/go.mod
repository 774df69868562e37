module hyaline/benchmark

go 1.24

require hyaline v0.0.0

replace hyaline => ../
