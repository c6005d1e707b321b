from .domain import make_domain

DOMAINS = {"demo": make_domain}
