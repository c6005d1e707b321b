from pkg.core import used

used()
