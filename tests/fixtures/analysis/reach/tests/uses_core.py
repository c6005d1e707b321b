from pkg.core import only_tested

assert only_tested() == 1
